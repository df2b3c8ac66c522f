"""Inputs, passes and output checks of the three benchmark workloads.

Each workload turns the benchmark seed into its inputs, runs *passes* over
its operations and checks every operation's output.  An operation is one
map cell (``map``), one preset invocation (``tables``) or one sampler
scenario (``sampler``).  Checks run after a pass, outside any trace.  The
library is reached through module attributes looked up at call time, so a
``Tracer`` sees the calls.

Why each workload exists, and which layer metrics it is meant to move, is
recorded in README.md beside this file.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path

import numpy as np

from muxsps import cli, engine, optimize
from muxsps.engine import SourceConfig
from muxsps.losses import MultiplexerModel
from muxsps.statistics import DetectorModel, HeraldingStrategy, PairDistribution, PairKind

# the package re-exports the function ``simulate`` under the module's name
sampler = import_module("muxsps.simulate")

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
REFERENCE = Path(__file__).resolve().parent / "reference"

P1_TOL = 1e-9
# per-cell values in reference/map.json, in this order
MAP_REFERENCE_FIELDS = ("n_opt_spd", "p1_spd", "n_opt_threshold", "p1_threshold", "j_opt", "p1_jopt")

# separate random streams per workload for one benchmark seed
_STREAM = {"map": 1, "tables": 2, "sampler": 3}


def child_env() -> dict[str, str]:
    """Environment for library subprocesses: the checkout's source tree first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


@dataclass
class Op:
    """One timed operation and the output its check reads."""

    seconds: float
    output: object


@dataclass
class Pass:
    seconds: float
    ops: list[Op] = field(default_factory=list)


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([_STREAM[workload], seed])


def _load_reference(name: str) -> dict:
    with open(REFERENCE / name, encoding="utf-8") as handle:
        return json.load(handle)


class MapWorkload:
    """``comparison_map`` over a seeded draw of lattice cells."""

    name = "map"
    setup_argv = ("-c", "import muxsps")
    memory_in_children = False
    # the paper's map lattice: 0.01 steps on [0.3, 1.0] for both V_D and V_r
    lattice = np.round(0.30 + 0.01 * np.arange(71), 2)
    # the ssm-maps scenario: Poissonian source, symmetric tree, pow2:1024
    settings = dict(
        j_max=6,
        n_candidates=tuple(2**k for k in range(11)),
        tail_tol=1e-12,
        i_max=8,
        resolution_cap=10,
    )

    def __init__(self, seed: int, axes: tuple[int, int] = (7, 6), reference: dict | None = None):
        # 7 x 6 = 42 cells, so p75 has ten cells beyond it in a single pass
        self.seed = seed
        self.shape = axes
        self.reference = _load_reference("map.json")["cells"] if reference is None else reference

    def generate(self) -> None:
        """Stratified draw of V_D and V_r values from the lattice.

        The lattice is cut into equal strata and one value is drawn from
        each, so every seed spans the whole loss plane and the cost of a
        pass changes little from seed to seed.
        """
        rng = _rng(self.name, self.seed)

        def draw(strata: int) -> tuple[float, ...]:
            chunks = np.array_split(np.arange(self.lattice.size), strata)
            return tuple(float(self.lattice[rng.choice(chunk)]) for chunk in chunks)

        self.axes = (draw(self.shape[0]), draw(self.shape[1]))

    def run(self, in_process: bool = False, on_op=None) -> Pass:
        """One map in process with one worker; cell times from ``progress``."""
        stamps = [time.perf_counter()]

        def progress(done: int, total: int) -> None:
            stamps.append(time.perf_counter())
            if on_op is not None:
                on_op(done)

        if on_op is not None:
            on_op(0)
        result = optimize.comparison_map(*self.axes, workers=1, progress=progress, **self.settings)
        seconds = time.perf_counter() - stamps[0]
        cells = map_cells(result)
        if len(stamps) != len(cells) + 1:
            raise RuntimeError(f"progress reported {len(stamps) - 1} of {len(cells)} cells")
        return Pass(seconds, [Op(float(d), cell) for d, cell in zip(np.diff(stamps), cells)])

    def check(self, cell: dict) -> bool:
        """Closed-form P1 at the returned optima, and the reference optima."""
        detector = DetectorModel(cell["vd"], self.settings["resolution_cap"])
        mux = MultiplexerModel.symmetric_spatial(cell["vr"])
        checks = (
            (HeraldingStrategy.single_photon(), "spd", engine.p1_spd_closed_form),
            (HeraldingStrategy.threshold(), "threshold", engine.p1_threshold_closed_form),
        )
        for strategy, tag, closed_form in checks:
            cfg = SourceConfig(
                PairDistribution(PairKind.POISSONIAN, cell[f"lambda_opt_{tag}"]),
                detector,
                strategy,
                mux,
                cell[f"n_opt_{tag}"],
                tail_tol=self.settings["tail_tol"],
                i_max=self.settings["i_max"],
            )
            if not abs(closed_form(cfg) - cell[f"p1_{tag}"]) <= P1_TOL:
                return False
        if not cell["p1_jopt"] >= cell["p1_spd"]:
            return False
        ref = self.reference.get(map_cell_key(cell["vd"], cell["vr"]))
        if ref is None:
            return False
        for name, value in zip(MAP_REFERENCE_FIELDS, ref):
            if not (abs(cell[name] - value) <= P1_TOL if name.startswith("p1") else cell[name] == value):
                return False
        return True


def map_cell_key(vd: float, vr: float) -> str:
    return f"{vd:.2f},{vr:.2f}"


def map_cells(result) -> list[dict]:
    """Per-cell optima of a ComparisonMap, in row-major cell order."""
    cells = []
    for iv, vd in enumerate(result.axis_vd):
        for ir, vr in enumerate(result.axis_vr):
            cells.append(
                {
                    "vd": float(vd),
                    "vr": float(vr),
                    "n_opt_spd": int(result.n_opt_spd[iv, ir]),
                    "lambda_opt_spd": float(result.lambda_opt_spd[iv, ir]),
                    "p1_spd": float(result.p1_spd[iv, ir]),
                    "n_opt_threshold": int(result.n_opt_threshold[iv, ir]),
                    "lambda_opt_threshold": float(result.lambda_opt_threshold[iv, ir]),
                    "p1_threshold": float(result.p1_threshold[iv, ir]),
                    "j_opt": int(result.j_opt[iv, ir]),
                    "p1_jopt": float(result.p1_jopt[iv, ir]),
                }
            )
    return cells


class TablesWorkload:
    """The shipped table presets through the CLI, in a seeded order."""

    name = "tables"
    setup_argv = ("-m", "muxsps", "--version")
    memory_in_children = True
    presets = ("ssm-spd", "ssm-threshold", "btm", "loop-latest", "loop-latest-thermal", "ssm-curves")
    workers = 2

    def __init__(self, seed: int, presets: tuple[str, ...] | None = None, reference: dict | None = None):
        self.seed = seed
        if presets is not None:
            self.presets = presets
        self.reference = _load_reference("tables.json")["presets"] if reference is None else reference

    def generate(self) -> None:
        self.order = tuple(self.presets[k] for k in _rng(self.name, self.seed).permutation(len(self.presets)))

    def run(self, in_process: bool = False, on_op=None) -> Pass:
        """Every preset once: as subprocesses with ``--workers 2``, or in
        process through ``muxsps.cli.main`` with one worker (the traced form)."""
        OUT.mkdir(exist_ok=True)
        ops = []
        start = time.perf_counter()
        for k, preset in enumerate(self.order):
            if on_op is not None:
                on_op(k)
            out_path = OUT / f"table-{preset}.csv"
            out_path.unlink(missing_ok=True)
            t0 = time.perf_counter()
            if in_process:
                code = cli.main(table_argv(preset, out_path, 1))
            else:
                argv = [sys.executable, "-m", "muxsps", *table_argv(preset, out_path, self.workers)]
                code = subprocess.run(argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL).returncode
            seconds = time.perf_counter() - t0
            ops.append(Op(seconds, (preset, code, read_table(out_path) if code == 0 else None)))
        return Pass(time.perf_counter() - start, ops)

    def check(self, output) -> bool:
        """Exit code 0, key columns and N_opt exact, P1 within P1_TOL."""
        preset, code, got = output
        ref = self.reference[preset]
        if code != 0 or got is None:
            return False
        if got["header"] != ref["header"] or len(got["rows"]) != len(ref["rows"]):
            return False
        for column, name in enumerate(ref["header"]):
            for row, ref_row in zip(got["rows"], ref["rows"]):
                if name.startswith("P_1"):
                    if not abs(float(row[column]) - float(ref_row[column])) <= P1_TOL:
                        return False
                elif name != "lambda_opt" and row[column] != ref_row[column]:
                    return False
        return True


def table_argv(preset: str, out_path, workers: int) -> list[str]:
    return ["table", "--preset", preset, "--out", str(out_path), "--workers", str(workers)]


def read_table(path) -> dict | None:
    """Header and rows of a CLI output file, provenance comments dropped."""
    try:
        with open(path, encoding="utf-8") as handle:
            rows = list(csv.reader(line for line in handle if not line.startswith("#")))
    except OSError:
        return None
    return {"header": rows[0], "rows": rows[1:]} if rows else None


class SamplerWorkload:
    """``simulate`` on fixed scenarios, sampler seeds drawn from the seed."""

    name = "sampler"
    setup_argv = ("-c", "import muxsps")
    memory_in_children = False

    def __init__(self, seed: int, pulses: int = 1_000_000):
        self.seed = seed
        self.pulses = pulses
        self.expected: list | None = None  # exact distributions, made on first check

    def generate(self) -> None:
        self.scenarios = sampler_scenarios()
        rng = _rng(self.name, self.seed)
        self.seeds = [int(s) for s in rng.integers(0, 2**63, size=len(self.scenarios))]

    def run(self, in_process: bool = False, on_op=None) -> Pass:
        ops = []
        start = time.perf_counter()
        for k, ((_, cfg), sim_seed) in enumerate(zip(self.scenarios, self.seeds)):
            if on_op is not None:
                on_op(k)
            t0 = time.perf_counter()
            estimate = sampler.simulate(cfg, self.pulses, sim_seed)
            ops.append(Op(time.perf_counter() - t0, (k, estimate)))
        return Pass(time.perf_counter() - start, ops)

    def check(self, output) -> bool:
        """Counts 0..MC_CHECK_I_MAX within the CLI's --mc-check sigma limit."""
        k, estimate = output
        if self.expected is None:
            self.expected = [engine.output_distribution(cfg) for _, cfg in self.scenarios]
        exact = self.expected[k]
        return all(estimate.sigma(i, exact[i]) <= cli.MC_SIGMA_LIMIT for i in range(cli.MC_CHECK_I_MAX + 1))


def sampler_scenarios() -> list[tuple[str, SourceConfig]]:
    """Fixed scenarios in the style of the Monte-Carlo acceptance criterion.

    Parameters sit in that criterion's ranges, except the 32-unit time
    chain, which runs the per-unit sampling loop longest.
    """
    poisson, thermal = PairKind.POISSONIAN, PairKind.THERMAL
    return [
        (
            "time-chain-32",
            SourceConfig(
                PairDistribution(poisson, 0.5),
                DetectorModel(0.6),
                HeraldingStrategy.single_photon(),
                MultiplexerModel.time_chain(0.95, generic_transmission=0.95),
                32,
            ),
        ),
        (
            "loop-latest-thermal",
            SourceConfig(
                PairDistribution(thermal, 0.8),
                DetectorModel(0.7),
                HeraldingStrategy.single_photon(),
                MultiplexerModel.time_loop_latest(0.97, generic_transmission=0.92),
                10,
            ),
        ),
        (
            "btm-threshold",
            SourceConfig(
                PairDistribution(poisson, 1.0),
                DetectorModel(0.8),
                HeraldingStrategy.threshold(),
                MultiplexerModel.binary_bulk_time(0.97, 0.99, 0.95, generic_transmission=0.95),
                8,
            ),
        ),
        (
            "tree-up-to-2",
            SourceConfig(
                PairDistribution(poisson, 1.5),
                DetectorModel(0.5),
                HeraldingStrategy.up_to(2),
                MultiplexerModel.symmetric_spatial(0.9, generic_transmission=0.95),
                4,
            ),
        ),
    ]


WORKLOADS = {w.name: w for w in (MapWorkload, TablesWorkload, SamplerWorkload)}
