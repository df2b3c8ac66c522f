#!/usr/bin/env python3
"""Generate the heralding-mode comparison maps over the loss-parameter plane.

The full 0.01-step map (71 x 71 cells, each with a full unit-count and
cutoff scan) took 114 s with --workers 2 (206 s with one) on a 2-vCPU VM;
the default step of 0.05 takes about 6 s and is enough to see the structure.

Usage:
    python scripts/make_maps.py [--step 0.05] [--out out/maps.csv] [--workers K]
"""

import argparse
import os
import sys

from muxsps.cli import main as muxsps_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--step", type=float, default=0.05, help="grid step on both axes")
    parser.add_argument("--out", default=os.path.join("out", "maps.csv"))
    parser.add_argument("--workers", type=int, default=os.cpu_count())
    args = parser.parse_args()

    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    return muxsps_main(
        [
            "map",
            "--preset",
            "ssm-maps",
            "--grid-step",
            str(args.step),
            "--out",
            args.out,
            "--workers",
            str(args.workers),
        ]
    )


if __name__ == "__main__":
    sys.exit(main())
