"""The four workloads.  Each is a closed loop with one client: an op starts
only after the previous one has finished, and subprocesses run one at a
time.  Each puts its work on a different layer:

- ``paper-tables``: what a user types to reproduce the paper (CLI
  subprocesses at the default orders); start-up and import are a visible
  share, table building about 2%.
- ``deep-series``: the series to K = 10 in process, one
  ``HPMExpansion.advanced()`` call at a time; nearly all time in scalars,
  expalgebra and hpm, over Q (case 2) and over Q(sqrt 2), Q(sqrt 3).
- ``dense-grid``: ``build_error_table`` over a seeded grid for an expansion
  built during set-up; all timed work in waves/tables, none in hpm.
- ``general-config``: ``run --config`` on a non-preset problem whose
  radicand has 9 digits, which the presets never exercise.

An op is one round over the workload's inputs (the five paper commands, the
three presets, one grid point x with all its cells, one config run); the
seed orders the rounds and draws the grid points.
"""

from __future__ import annotations

import cProfile
import pstats
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from bhhpm import (
    BHProblem,
    HPMExpansion,
    QuadraticNumber,
    build_error_table,
    case_preset,
    deng_wave,
    run_hpm,
)

from harness import OUT, Run
from oracle import (
    GOLDEN_ORDERS,
    PAPER_T,
    PAPER_X,
    case1_closed_forms,
    check_golden_output,
    check_run_output,
    check_series,
    check_taylor_output,
    cli_problems,
    compare_cells,
    oracle_cells,
)

TRACED_CLI = Path(__file__).resolve().parent / "traced_cli.py"


@dataclass
class TracedOp:
    """One op of the workload, profiled; its untraced and traced runs are
    spans named ``trace.untraced_s`` and ``trace.traced_s``."""

    label: str
    stats: pstats.Stats
    cells: int


UNTRACED, TRACED = ("trace.untraced_s",), ("trace.traced_s",)


def profile_call(run: Run, fn, *args):
    """``fn(*args)`` once as is and once under cProfile; (plain result,
    traced result, stats)."""
    run.measure_speed(force=True)
    plain = run.timed(UNTRACED, fn, *args)
    run.measure_speed(force=True)
    prof = cProfile.Profile()
    prof.enable()
    traced = run.timed(TRACED, fn, *args)
    prof.disable()
    run.measure_speed(force=True)
    return plain, traced, pstats.Stats(prof)


def traced_cli(run: Run, label: str, args: tuple[str, ...], check, cells: int) -> TracedOp:
    """The CLI op once as is and once under cProfile; both outputs checked."""
    run.measure_speed(force=True)
    run.op_done(label, check(run.cli(args, names=UNTRACED)))
    run.measure_speed(force=True)
    OUT.mkdir(exist_ok=True)
    prof_path = OUT / f"{run.workload}.seed{run.seed}.prof"
    traced = run.cli((str(prof_path), *args), names=TRACED, runner=(str(TRACED_CLI),))
    run.measure_speed(force=True)
    run.op_done(label + " (traced)", check(traced))
    return TracedOp(label, pstats.Stats(str(prof_path)), cells)


class PaperTables:
    """golden, taylor-check and run --case 1|2|3 at their default orders."""

    RUN_ORDERS = {1: (1, 2, 3, 6), 2: (1, 3, 5, 6), 3: (1, 3, 5, 6)}
    #: op name -> (CLI arguments, metric of its time)
    COMMANDS = {
        "golden": (("golden",), "golden_s"),
        "taylor-check": (("taylor-check",), "taylor_check_s"),
        **{f"run-{c}": (("run", "--case", str(c), "--format", "csv"), "run_s") for c in (1, 2, 3)},
    }

    def __init__(self, run: Run) -> None:
        self.run = run

    def setup(self) -> None:
        pass

    def prepare(self) -> None:
        orders = sorted(set(GOLDEN_ORDERS) | {m for ms in self.RUN_ORDERS.values() for m in ms})
        every = {c: oracle_cells(case_preset(c), PAPER_X, PAPER_T, orders) for c in (1, 2, 3)}
        self.golden = {c: _select(every[c], GOLDEN_ORDERS) for c in every}
        self.tables = {c: _select(every[c], self.RUN_ORDERS[c]) for c in every}

    def check(self, key: str, result) -> list[str]:
        if key == "golden":
            return check_golden_output(result, self.golden)
        if key == "taylor-check":
            return check_taylor_output(result)
        return check_run_output(result, self.tables[int(key[-1])])

    def op(self) -> None:
        for key in self.run.rng.sample(sorted(self.COMMANDS), len(self.COMMANDS)):
            args, metric = self.COMMANDS[key]
            self.run.measure_speed()
            result = self.run.cli(args, names=(metric,))
            self.run.op_done(key, self.check(key, result))

    def traced_op(self) -> TracedOp:
        return traced_cli(self.run, "golden", self.COMMANDS["golden"][0],
                          lambda r: self.check("golden", r), cells=3 * 36)


class DeepSeries:
    """v_0..v_10 of presets 1-3, stepped one advanced() call at a time."""

    ORDER = 10

    def __init__(self, run: Run) -> None:
        self.run = run

    def setup(self) -> None:
        self.problems = {c: case_preset(c) for c in (1, 2, 3)}

    def prepare(self) -> None:
        pass

    def op(self) -> None:
        for case in self.run.rng.sample([1, 2, 3], 3):
            total = f"series_s.case{case}"
            expansion = self.run.timed((), HPMExpansion.start, self.problems[case], total=total)
            for k in range(1, self.ORDER + 1):
                self.run.measure_speed()
                expansion = self.run.timed((f"step_s.k{k:02d}",), expansion.advanced, total=total)
            problems, worst = check_series(expansion, self.problems[case],
                                           case1_closed_forms if case == 1 else None)
            self.run.notes[f"oracle_deviation.case{case}"] = float(worst)
            self.run.op_done(f"series case {case}", problems)

    def traced_op(self) -> TracedOp:
        """run_hpm(case 3, 8), the op whose top frames ROADMAP quotes."""
        problem = self.problems[3]
        plain, traced, stats = profile_call(self.run, run_hpm, problem, 8)
        self.run.op_done("run_hpm(case 3, 8)", check_series(plain, problem)[0])
        self.run.op_done("run_hpm(case 3, 8) (traced)", check_series(traced, problem)[0])
        return TracedOp("run_hpm(case 3, 8)", stats, cells=0)


class DenseGrid:
    """A case-3 order-8 table over every order 1..9 on a seeded grid."""

    ORDERS = tuple(range(1, 10))
    POINTS = 240

    def __init__(self, run: Run) -> None:
        self.run = run
        # x across both tails of the front (x in [-24, 24]), t in (0, 0.4]
        self.xs = [Fraction(k, 100) for k in run.rng.sample(range(-2400, 2401), self.POINTS)]
        self.ts = sorted(Fraction(k, 1000) for k in run.rng.sample(range(1, 401), 3))
        self.next = 0

    def setup(self) -> None:
        self.problem = case_preset(3)
        self.expansion = run_hpm(self.problem, 8)
        self.wave = deng_wave(self.problem)

    def prepare(self) -> None:
        self.expected = oracle_cells(self.problem, self.xs, self.ts, self.ORDERS)

    def table(self, x: Fraction):
        return build_error_table(self.expansion, self.wave, orders=self.ORDERS, ts=self.ts, xs=[x])

    def check(self, x: Fraction, table) -> list[str]:
        keys = [(t, m, x) for t in self.ts for m in self.ORDERS]
        got = {key: table.cell(*key) for key in keys}
        return compare_cells(got, {k: self.expected[k] for k in keys})

    def op(self) -> None:
        x = self.xs[self.next % len(self.xs)]
        self.next += 1
        self.run.measure_speed()
        table = self.run.timed((), self.table, x)
        self.run.notes["cells"] = self.run.notes.get("cells", 0) + len(self.ts) * len(self.ORDERS)
        self.run.op_done(f"grid point x={x}", self.check(x, table))

    def traced_op(self) -> TracedOp:
        x = self.xs[0]
        plain, traced, stats = profile_call(self.run, self.table, x)
        self.run.op_done(f"grid point x={x}", self.check(x, plain))
        self.run.op_done(f"grid point x={x} (traced)", self.check(x, traced))
        return TracedOp(f"grid point x={x}", stats, cells=len(self.ts) * len(self.ORDERS))


#: A slow front with a 9-digit radicand: alpha^2 + 8*beta = 999950891.
SLOW_FRONT = {"alpha": 31622, "beta": Fraction(7, 8), "gamma": 1, "branch": "upper"}
#: The steep front of ROADMAP item 3: every exact-wave value underflows to
#: 0 on the grid, so the run exits 3 today.
STEEP_FRONT = {"alpha": 0, "beta": Fraction(1000000007, 8), "gamma": 1, "branch": "upper"}
CONFIG_ORDERS = 4


def slow_front_problem() -> BHProblem:
    params = {k: QuadraticNumber.from_rational(v) for k, v in SLOW_FRONT.items() if k != "branch"}
    return BHProblem(**params, n=1, branch=SLOW_FRONT["branch"])


class GeneralConfig:
    """run --config on non-preset problems, config files written here."""

    def __init__(self, run: Run) -> None:
        self.run = run
        self.xs = sorted(Fraction(k, 100) for k in run.rng.sample(range(-300, 301), 3))
        self.ts = sorted(Fraction(k, 1000) for k in run.rng.sample(range(1, 401), 3))

    def config_text(self, front: dict) -> str:
        lines = [f"{key} = {value}" for key, value in front.items()]
        lines += [
            f"orders = {CONFIG_ORDERS}",
            "grid_x = " + ", ".join(map(str, self.xs)),
            "grid_t = " + ", ".join(map(str, self.ts)),
            "format = csv",
        ]
        return "\n".join(lines) + "\n"

    def setup(self) -> None:
        OUT.mkdir(exist_ok=True)
        self.paths = {}
        for name, front in (("slow", SLOW_FRONT), ("steep", STEEP_FRONT)):
            path = OUT / f"{name}-front.seed{self.run.seed}.conf"
            path.write_text(self.config_text(front), encoding="utf-8")
            self.paths[name] = str(path)

    def prepare(self) -> None:
        self.expected = oracle_cells(slow_front_problem(), self.xs, self.ts, range(1, CONFIG_ORDERS + 2))
        self.known_defect_probe()

    def check(self, result) -> list[str]:
        return check_run_output(result, self.expected)

    def op(self) -> None:
        self.run.measure_speed()
        result = self.run.cli(("run", "--config", self.paths["slow"]), names=("run_s",))
        self.run.op_done("run --config slow front", self.check(result))

    def known_defect_probe(self) -> None:
        """The steep front, run once before the timed ops: its exit code is
        reported as a known failure rather than counted as an op."""
        result = self.run.cli(("run", "--config", self.paths["steep"]))
        problems = cli_problems(result, 0)
        # with exit 0 the cells stay unchecked: the oracle's wave underflows too
        self.run.notes["steep_front"] = {
            "exit": result.code,
            "seconds": result.seconds,
            "status": "failed: " + "; ".join(problems) if problems else "ok",
        }

    def traced_op(self) -> TracedOp:
        return traced_cli(self.run, "run --config slow front", ("run", "--config", self.paths["slow"]),
                          self.check, cells=len(self.xs) * len(self.ts) * (CONFIG_ORDERS + 1))


WORKLOADS = {
    "paper-tables": PaperTables,
    "deep-series": DeepSeries,
    "dense-grid": DenseGrid,
    "general-config": GeneralConfig,
}


def _select(cells: dict, orders) -> dict:
    return {key: value for key, value in cells.items() if key[1] in orders}
