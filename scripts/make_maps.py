#!/usr/bin/env python3
"""Generate the heralding-mode comparison maps over the loss-parameter plane.

The full 0.01-step map (71 x 71 cells; each chunk of up to 12 cells of one
detector efficiency is one pump-mean search over the threshold and cutoff
lanes of every router transmission and unit count) took 8-12 s with
--workers 2 (10-17 s with one) on a 2-vCPU VM; the default step of 0.05
takes about 1 s and is enough to see the structure.

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
