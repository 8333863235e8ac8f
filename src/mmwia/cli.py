"""Command-line entry point: experiment dispatch and CSV/SVG emission.

Usage: mmwia <command> --config <path> [--seed N] [--out DIR] [--trials N]
Commands: p-los, reduction-power, reduction-pmiss, time-cluster,
single-trial, selftest. Each campaign command writes <name>.csv and .svg;
without --trials it runs [experiment] p_los_trials (p-los) or trials
(the others) per grid point. single-trial prints trial 0 of grid point 0
under both schemes, exhaustive then coordinated, drawn as the campaigns
draw it. Environment overrides: SIM_SEED, SIM_OUT.
--trials must be at least 1; --seed and SIM_SEED must be non-negative
integers.
Exit codes: 0 success, 1 usage, 2 config error, 3 experiment failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .config import ConfigError, SimConfig, load_config
from .experiments import (
    ResultTable,
    point_threshold,
    run_p_los,
    run_reduction_vs_power,
    run_reduction_vs_pmiss,
    run_time_vs_cluster,
    trial_setups,
)
from .protocol import run_coordinated, run_exhaustive
from .selftest import run_selftest
from .svgplot import line_plot


class Campaign(NamedTuple):
    runner: str        # name of its run_* function here, looked up per run
    trials_field: str  # [experiment] field with its default trial count
    title: str
    plot: tuple        # x, y and series (or None) columns; x and y labels


CAMPAIGNS = {
    "p-los": Campaign(
        "run_p_los", "p_los_trials", "LOS selection probability",
        ("n_sc", "p_los", "p_blk", "cluster size", "P(top-3 all LOS)")),
    "reduction-power": Campaign(
        "run_reduction_vs_power", "trials", "IA time reduction vs UE power",
        ("p_ue_dbm", "p_er_pct", "n_tx", "UE Tx power (dBm)", "IA time change (%)")),
    "reduction-pmiss": Campaign(
        "run_reduction_vs_pmiss", "trials",
        "IA time reduction vs target miss probability",
        ("p_miss", "p_er_pct", "n_tx", "target miss probability",
         "IA time change (%)")),
    "time-cluster": Campaign(
        "run_time_vs_cluster", "trials", "Normalized IA time vs cluster size",
        ("n_sc", "norm_ia_time", None, "cluster size", "normalized IA time")),
}

COMMANDS = (*CAMPAIGNS, "single-trial", "selftest")

EXIT_OK, EXIT_USAGE, EXIT_CONFIG, EXIT_EXPERIMENT = 0, 1, 2, 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text: str) -> int:
        if not text.removeprefix("-").isdecimal() or int(text) < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}")
        return int(text)
    return parse


def _build_parser() -> _Parser:
    p = _Parser(prog="mmwia", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("--config", default=None, help="key=value config file")
    p.add_argument("--seed", type=_int_at_least(0), default=None,
                   help="master seed override")
    p.add_argument("--out", default=None, help="output directory override")
    p.add_argument("--trials", type=_int_at_least(1), default=None,
                   help="trials-per-point override")
    return p


def _series_by_group(table: ResultTable, x_col: str, y_col: str,
                     group_col: str | None):
    xs, ys = table.column(x_col), table.column(y_col)
    if group_col is None:
        return [("all", xs, ys)]
    groups = table.column(group_col)
    return [(f"{group_col}={g}", [x for x, gi in zip(xs, groups) if gi == g],
             [y for y, gi in zip(ys, groups) if gi == g])
            for g in dict.fromkeys(groups)]


def _emit(table: ResultTable, out_dir: Path, campaign: Campaign) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{table.name}.csv"
    table.write_csv(csv_path)
    x_col, y_col, group, xlabel, ylabel = campaign.plot
    svg = line_plot(campaign.title, xlabel, ylabel,
                    _series_by_group(table, x_col, y_col, group))
    stamp = f"<!-- config={table.config_hash} seed={table.master_seed} -->\n"
    (out_dir / f"{table.name}.svg").write_text(stamp + svg)
    print(f"wrote {csv_path} (+.svg), {len(table.rows)} rows")


def _single_trial(cfg: SimConfig, seed: int) -> None:
    """Trial 0 of grid point 0 under both schemes, exhaustive first, drawn
    and seeded as the paired campaigns draw it."""
    gamma = point_threshold(cfg, seed, 0)
    setup, protocol_seed = next(trial_setups(
        cfg, cfg.antenna.n_tx, cfg.channel.p_ue_dbm, gamma, 1, seed, 0))
    ue = setup.ue
    for runner in (run_exhaustive, run_coordinated):
        out = runner(setup, protocol_seed)
        print(f"scheme:         {out.scheme}")
        print(f"success:        {out.success}")
        print(f"rounds:         {out.rounds}")
        print(f"slots_used:     {out.slots_used}")
        print(f"ia_time_s:      {out.ia_time_s:.6f}")
        print(f"detecting_cell: {out.detecting_cell}")
        print(f"detecting_pair: {out.detecting_pair}")
        if out.estimated_ue is not None:
            x, y = out.estimated_ue
            print(f"estimated_ue:   ({x:.2f}, {y:.2f})")
            print(f"estimate_error: {math.hypot(x - ue[0], y - ue[1]):.2f} m")
        else:
            print("estimated_ue:   none")
        print(f"true_ue:        ({ue[0]:.2f}, {ue[1]:.2f})")


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    seed = cfg.experiment.master_seed
    if os.environ.get("SIM_SEED"):
        try:
            seed = _int_at_least(0)(os.environ["SIM_SEED"])
        except argparse.ArgumentTypeError as exc:
            print(f"usage error: SIM_SEED: {exc}", file=sys.stderr)
            return EXIT_USAGE
    if args.seed is not None:
        seed = args.seed
    out_dir = Path(os.environ.get("SIM_OUT") or cfg.output.dir)
    if args.out is not None:
        out_dir = Path(args.out)

    if args.command == "selftest":
        return EXIT_OK if run_selftest() else EXIT_EXPERIMENT

    try:
        if args.command == "single-trial":
            _single_trial(cfg, seed)
            return EXIT_OK
        campaign = CAMPAIGNS[args.command]
        trials = args.trials or getattr(cfg.experiment, campaign.trials_field)
        table = globals()[campaign.runner](cfg, trials, seed)
        _emit(table, out_dir, campaign)
    except Exception as exc:  # experiment-level failure -> exit 3
        print(f"experiment error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
