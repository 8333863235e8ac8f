"""Command-line entry point: experiment dispatch and CSV/SVG emission.

Usage: mmwia <command> [--config PATH] [--seed N] [--out DIR] [--trials N]
       mmwia -h | --help
Commands: p-los, reduction-power, reduction-pmiss, time-cluster,
single-trial, selftest. Each campaign command writes <name>.csv and .svg;
without --trials it runs [experiment] p_los_trials (p-los) or trials
(the others) per grid point. single-trial prints trial 0 of grid point 0
under both schemes, exhaustive then coordinated, drawn as the campaigns
draw it: as the first trial of a whole chunk.
Options go before or after the command, as --opt VALUE or --opt=VALUE,
under any unique prefix (--conf); the last repeat wins. Without --config
the defaults apply; --seed and --out override [experiment] master_seed
and [output] dir. --trials must be at least 1; --seed must be a
non-negative integer.
Exit codes: 0 success, 1 usage, 2 config error, 3 experiment failure.
A reader that closes standard output early (mmwia selftest | head -1)
fails no command: the rest of the output is dropped, and the exit code is
the one the command would have returned.
"""

from __future__ import annotations

import getopt
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

from .config import ConfigError, SimConfig, load_config
from .experiments import (
    CHUNK,
    ResultTable,
    point_threshold,
    run_p_los,
    run_reduction_vs_power,
    run_reduction_vs_pmiss,
    run_time_vs_cluster,
    trial_batches,
)
from .protocol import run_batch
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


def _parse_args(argv: list[str]) -> tuple[str | None, dict]:
    """The command and {option: value} of a command line; no command if it
    asks for help."""
    longopts = ["config=", "seed=", "out=", "trials=", "help"]
    try:
        # a POSIX pass on each side of the command: gnu_getopt would stop at
        # the command whenever POSIXLY_CORRECT is set
        opts, operands = getopt.getopt(argv, "h", longopts)
        if operands:
            # operands may be argv itself: bind new lists, change none
            more, rest = getopt.getopt(operands[1:], "h", longopts)
            opts, operands = opts + more, [operands[0], *rest]
    except getopt.GetoptError as exc:
        raise _UsageError(exc.msg) from None
    args = {name.lstrip("-"): value for name, value in opts}  # last repeat wins
    if "h" in args or "help" in args:
        return None, args
    if len(operands) != 1 or operands[0] not in COMMANDS:
        raise _UsageError(f"expected one command of {', '.join(COMMANDS)}, "
                          f"got {' '.join(operands) or 'none'}")
    for name, minimum in (("seed", 0), ("trials", 1)):
        text = args.get(name)
        if text is None:
            continue
        if not text.removeprefix("-").isdecimal() or int(text) < minimum:
            raise _UsageError(f"--{name}: expected an integer >= {minimum}, got {text!r}")
        args[name] = int(text)
    return operands[0], args


def _series_by_group(table: ResultTable, x_col: str, y_col: str,
                     group_col: str | None):
    xs, ys = table.column(x_col), table.column(y_col)
    if group_col is None:
        return [("all", xs, ys)]
    groups = table.column(group_col)
    return [(f"{group_col}={g}", [x for x, gi in zip(xs, groups) if gi == g],
             [y for y, gi in zip(ys, groups) if gi == g])
            for g in dict.fromkeys(groups)]


def _rewrite(path: Path, text: str) -> None:
    """Leave ``path`` holding ``text`` as open(path, "w") would: through a
    symlink (also to a device), on the same inode (hard links and mode
    kept), failing alike on a read-only file or a directory. It overwrites
    in place and then cuts off what is left past the text, never
    truncating the file to zero first: ext4 (auto_da_alloc) flushes a
    file truncated to zero and rewritten when it is closed, 0.1-0.4 ms a
    file on a rerun into existing outputs. That flush is given up: a run
    cut short mid-write can leave the new text followed by the old
    file's tail, where a truncating open left the file empty or short;
    an output is remade by rerunning its config and seed."""
    data = text.encode()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if os.fstat(fh.fileno()).st_size > len(data):  # a device has no size to cut
            fh.truncate(len(data))


def _emit(table: ResultTable, out_dir: Path, campaign: Campaign) -> str:
    """Write the table's CSV and SVG; returns the line that reports them."""
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / f"{table.name}.csv"
    _rewrite(csv_path, table.to_csv())
    x_col, y_col, group, xlabel, ylabel = campaign.plot
    svg = line_plot(campaign.title, xlabel, ylabel,
                    _series_by_group(table, x_col, y_col, group))
    stamp = f"<!-- config={table.config_hash} seed={table.master_seed} -->\n"
    _rewrite(out_dir / f"{table.name}.svg", stamp + svg)
    return f"wrote {csv_path} (+.svg), {len(table.rows)} rows\n"


def _single_trial(cfg: SimConfig, seed: int) -> str:
    """The report of trial 0 of grid point 0 under both schemes, exhaustive
    first, drawn and seeded as the paired campaigns draw it: the first
    trial of chunk 0, drawn whole."""
    draw, protocol_seed = next(trial_batches(cfg, CHUNK, seed, 0))
    ue = draw[1][0]  # a draw is (cells, UEs, blocking)
    lines = []
    for out in run_batch(cfg, point_threshold(cfg, seed, 0), draw, protocol_seed):
        hit = bool(out.success[0])
        lines += [f"scheme:         {out.scheme}",
                  f"success:        {hit}",
                  f"rounds:         {out.rounds[0]}",
                  f"slots_used:     {out.slots_used[0]}",
                  f"ia_time_s:      {out.ia_time_s[0]:.6f}",
                  f"detecting_cell: {out.detecting_cell[0] if hit else None}",
                  f"detecting_pair: {tuple(out.detecting_pair[0].tolist()) if hit else None}"]
        x, y = out.estimated_ue[0]
        if math.isnan(x):
            lines.append("estimated_ue:   none")
        else:
            lines += [f"estimated_ue:   ({x:.2f}, {y:.2f})",
                      f"estimate_error: {math.hypot(x - ue[0], y - ue[1]):.2f} m"]
        lines.append(f"true_ue:        ({ue[0]:.2f}, {ue[1]:.2f})")
    return "".join(line + "\n" for line in lines)


def _print_report(text: str) -> None:
    """Print ``text`` to standard output. A reader that has closed its end
    gets none of it, and standard output then points at os.devnull, so the
    interpreter's flush at exit reports no broken pipe either."""
    try:
        print(text, end="", flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)


def main(argv=None) -> int:
    try:
        command, args = _parse_args(sys.argv[1:] if argv is None else argv)
        if command is None:
            _print_report(__doc__ or "")  # python -OO strips it
            return EXIT_OK
        cfg = load_config(args.get("config"))
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    seed = args.get("seed", cfg.experiment.master_seed)
    out_dir = Path(args.get("out", cfg.output.dir))

    if command == "selftest":
        # the oracle suite is large and no other command needs it
        from .selftest import run_selftest
        passed = run_selftest(lambda line: _print_report(line + "\n"))
        return EXIT_OK if passed else EXIT_EXPERIMENT

    try:
        if command == "single-trial":
            report = _single_trial(cfg, seed)
        else:
            campaign = CAMPAIGNS[command]
            trials = args.get("trials") or getattr(cfg.experiment, campaign.trials_field)
            table = globals()[campaign.runner](cfg, trials, seed)
            report = _emit(table, out_dir, campaign)
    except Exception as exc:  # experiment-level failure -> exit 3
        print(f"experiment error: {exc}", file=sys.stderr)
        return EXIT_EXPERIMENT
    _print_report(report)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
