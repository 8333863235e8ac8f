#!/usr/bin/env python3
"""Regenerate every headline experiment (CSV + SVG) with one command.

Runs the four campaigns with the packaged defaults. Pass --quick for a
fast smoke pass (reduced trials), --out / --seed / --config as with the
CLI. Measured on one core of a 2-vCPU x86-64 cloud host with numpy
2.4.6: the full defaults take about 57 s, 38 s of them in p-los;
--quick takes about 4.5 s.
"""

import argparse
import sys
import time

from mmwia.cli import main as cli_main

CAMPAIGNS = ("p-los", "reduction-power", "reduction-pmiss", "time-cluster")

QUICK_TRIALS = {"p-los": "400", "reduction-power": "200",
                "reduction-pmiss": "200", "time-cluster": "200"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--quick", action="store_true", help="reduced trial counts")
    ap.add_argument("--config", default=None)
    ap.add_argument("--seed", default=None)
    ap.add_argument("--out", default="out")
    args = ap.parse_args(argv)

    for command in CAMPAIGNS:
        cli_args = [command, "--out", args.out]
        if args.config:
            cli_args += ["--config", args.config]
        if args.seed is not None:
            cli_args += ["--seed", str(args.seed)]
        if args.quick:
            cli_args += ["--trials", QUICK_TRIALS[command]]
        t0 = time.perf_counter()
        rc = cli_main(cli_args)
        print(f"{command}: exit {rc} in {time.perf_counter() - t0:.0f}s")
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
