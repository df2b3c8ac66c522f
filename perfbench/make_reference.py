#!/usr/bin/env python3
"""Write the reference outputs that the benchmark's checks compare against.

Run from the root of a checkout, on the commit whose outputs are the
reference (the library's results must not drift from it):

    python3 perfbench/make_reference.py

``reference/map.json`` holds the optima of every cell of the paper's
71 x 71 map lattice, so every cell any seed draws is checked against it.
The full map takes about half an hour of CPU time; it runs on every core.
``reference/tables.json`` holds the output rows of every table preset,
run in process with one worker.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import run


def main() -> int:
    run._import_library()
    import muxsps
    from workloads import (
        MAP_REFERENCE_FIELDS, OUT, REFERENCE, MapWorkload, TablesWorkload, cli, map_cell_key, map_cells, optimize, read_table,
    )

    lattice = MapWorkload.lattice

    def progress(done: int, total: int) -> None:
        if done % lattice.size == 0:
            print(f"map: {done} of {total} cells", file=sys.stderr, flush=True)

    result = optimize.comparison_map(
        lattice, lattice, workers=os.cpu_count() or 1, progress=progress, **MapWorkload.settings
    )
    cells = {map_cell_key(c["vd"], c["vr"]): [c[k] for k in MAP_REFERENCE_FIELDS] for c in map_cells(result)}
    _write(REFERENCE / "map.json", {"library": muxsps.__version__, "fields": list(MAP_REFERENCE_FIELDS), "cells": cells})

    OUT.mkdir(exist_ok=True)
    presets = {}
    for preset in TablesWorkload.presets:
        path = OUT / f"reference-{preset}.csv"
        if cli.main(["table", "--preset", preset, "--out", str(path), "--workers", "1"]) != 0:
            sys.exit(f"table --preset {preset} failed")
        presets[preset] = read_table(path)
        print(f"table {preset}: {len(presets[preset]['rows'])} rows", file=sys.stderr)
    _write(REFERENCE / "tables.json", {"library": muxsps.__version__, "presets": presets})
    return 0


def _write(path: Path, data: dict) -> None:
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(_dumps(data) + "\n")


def _dumps(value, depth: int = 0) -> str:
    """JSON with one line per innermost container (one map cell, one table row)."""
    pad = " " * (depth + 1)
    if isinstance(value, dict) and any(isinstance(v, (dict, list)) for v in value.values()):
        items = [f"{pad}{json.dumps(k)}: {_dumps(v, depth + 1)}" for k, v in value.items()]
        return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return "[\n" + ",\n".join(pad + _dumps(v, depth + 1) for v in value) + "\n" + " " * depth + "]"
    return json.dumps(value)


if __name__ == "__main__":
    sys.exit(main())
