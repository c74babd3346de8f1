"""Per-layer metrics.

Two sources, both from outside the package:

- module probes: direct calls into each layer's public API, timed without
  the profiler (median of batches);
- one op of the workload under cProfile: call counts of the functions each
  layer spends its work in, and each layer's self time.  A counted function
  that no longer exists counts 0.
"""

from __future__ import annotations

import fractions
import importlib.util
import io
import os
import re
import time
from fractions import Fraction
from functools import lru_cache

import mpmath
import mpmath.libmp

import bhhpm
from bhhpm import (
    HPMExpansion,
    QuadraticNumber,
    build_error_table,
    case_preset,
    deng_wave,
    golden_compare,
    parse_config,
)

from harness import OUT, SRC, Run, median, per_call
from oracle import GOLDEN_ORDERS, PAPER_T, PAPER_X
from workloads import SLOW_FRONT, TracedOp, slow_front_problem

LAYERS = ("scalars", "expalgebra", "hpm", "waves", "tables", "cli", "mpmath")
#: bhhpm modules outside this map belong to the cli layer (cli, config, problem).
MODULE_LAYER = {
    "scalars": "scalars", "expalgebra": "expalgebra", "hpm": "hpm",
    "waves": "waves", "tables": "tables", "golden": "tables",
}
STEP_ORDER = 10
X, T = Fraction(7, 4), Fraction(3, 10)
BIG_RADICAND = 999950891
UNITS = {"s": 1.0, "us": 1e6, "ns": 1e9}


def coeff_bits(text: str) -> int:
    """Largest bit length of an integer in a printed closed form, leaving
    out exponents and radicands."""
    text = re.sub(r"sqrt\(\d+\)|\^\d+", "", text)
    return max((int(d).bit_length() for d in re.findall(r"\d+", text)), default=0)


def module_probes(run: Run) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}

    def probe(name: str, unit: str, fn, reps: int, batches: int = 5, per: int = 1) -> None:
        """Reference time per call of ``fn``, divided by ``per``."""
        run.measure_speed(force=True)
        start = time.perf_counter()
        seconds = per_call(fn, reps, batches)
        end = time.perf_counter()
        run.measure_speed(force=True)
        m[name] = (seconds * run.scale(start, end) * UNITS[unit] / per, unit)

    # hpm: case 3 to K = 10, one advanced() call at a time
    problem = case_preset(3)
    expansion = HPMExpansion.start(problem)
    for k in range(1, STEP_ORDER + 1):
        run.measure_speed()
        expansion = run.timed((f"hpm.step_s.k{k:02d}",), expansion.advanced)
        text = str(expansion.terms[k])
        m[f"hpm.term_chars.k{k:02d}"] = (len(text), "chars")
        m[f"hpm.term_coeff_bits.k{k:02d}"] = (coeff_bits(text), "bits")
        if k == 8:
            order8 = expansion
    run.measure_speed(force=True)
    probe("hpm.partial_sum_us", "us", lambda: order8.partial_sum_at(9, X, T), 20)

    wave = deng_wave(problem)
    probe("waves.eval_us", "us", lambda: wave.eval_at(X, T), 200)
    probe("waves.taylor_us", "us", lambda: wave.time_taylor_coefficients(X, 10), 50)

    orders = tuple(range(1, 10))
    probe("tables.cell_us", "us",
          lambda: build_error_table(order8, wave, orders=orders, ts=[T], xs=[X]), 5, per=len(orders))
    table = build_error_table(order8, wave, orders=GOLDEN_ORDERS, ts=PAPER_T, xs=PAPER_X, case_id=3)
    probe("tables.compare_us", "us", lambda: golden_compare(table, 3), 20)

    def quad(a, b, d):
        return QuadraticNumber(Fraction(a), Fraction(b), d)

    a, b = quad("-1161/8", "81", 3), quad("2619/4", "-6075/16", 3)
    probe("scalars.mul_ns.d3", "ns", lambda: a * b, 2000)
    probe("scalars.add_ns.d3", "ns", lambda: a + b, 2000)
    probe("scalars.inv_ns.d3", "ns", a.inverse, 2000)
    big_a, big_b = quad("-1161/8", "81", BIG_RADICAND), quad("2619/4", "-6075/16", BIG_RADICAND)
    probe("scalars.mul_ns.dbig", "ns", lambda: big_a * big_b, 10)

    text = "\n".join(f"{k} = {v}" for k, v in SLOW_FRONT.items()) + "\norders = 4\n"
    probe("config.parse_us", "us", lambda: parse_config(text), 200)
    probe("problem.build_us", "us", slow_front_problem, 5)
    run.import_spans("bhhpm.cli", 5, "cli.import_s")

    samples = run.samples()
    for name in [f"hpm.step_s.k{k:02d}" for k in range(1, STEP_ORDER + 1)] + ["cli.import_s"]:
        m[name] = (median(samples[name]), "s")
    return m


@lru_cache(maxsize=None)
def _real(path: str) -> str:
    return os.path.realpath(path) if os.path.isabs(path) else path


def _package_dir(name: str) -> str:
    spec = importlib.util.find_spec(name)
    return _real(os.path.dirname(spec.origin)) if spec and spec.origin else "\0"


BHHPM_DIR = _real(str(SRC / "bhhpm"))
MPMATH_DIR = _package_dir("mpmath")
CLICK_DIR = _package_dir("click")
FRACTIONS_FILE = _real(fractions.__file__)


def layer_of(path: str) -> str | None:
    """Layer of a source file; None for frames without a file (built-ins,
    generated code), whose time goes to their callers."""
    if not os.path.isabs(path):
        return None
    path = _real(path)
    if os.path.dirname(path) == BHHPM_DIR:
        return MODULE_LAYER.get(os.path.splitext(os.path.basename(path))[0], "cli")
    if path == FRACTIONS_FILE:
        return "scalars"
    if path.startswith(MPMATH_DIR + os.sep):
        return "mpmath"
    if path.startswith(CLICK_DIR + os.sep):
        return "cli"
    return "other"


def _key(func) -> tuple[str, int, str] | None:
    code = getattr(func, "__code__", None)
    return (_real(code.co_filename), code.co_firstlineno, code.co_name) if code else None


def traced_metrics(op: TracedOp) -> dict[str, tuple[float, str]]:
    stats = {(_real(f), line, name): entry for (f, line, name), entry in op.stats.stats.items()}

    def calls(func) -> int:
        return stats.get(_key(func), (0, 0))[1]

    def calls_from(func, caller) -> int:
        entry = stats.get(_key(func))
        if not entry:
            return 0
        return sum(c[0] for (f, line, name), c in entry[4].items()
                   if (_real(f), line, name) == _key(caller))

    total = sum(entry[2] for entry in stats.values()) or 1.0
    gcd = [entry for (f, _, name), entry in stats.items()
           if name == "_poly_gcd" and f == _real(str(SRC / "bhhpm" / "expalgebra.py"))]
    lib = mpmath.libmp
    transcendentals = (calls(lib.mpf_exp) - calls_from(lib.mpf_exp, lib.mpf_cosh_sinh)
                       + calls(lib.mpf_tanh))

    self_s = dict.fromkeys(LAYERS + ("other",), 0.0)
    for (path, _, _), entry in stats.items():
        layer = layer_of(path)
        if layer is not None:
            self_s[layer] += entry[2]
            continue
        for (caller_path, _, _), caller in entry[4].items():
            self_s[layer_of(caller_path) or "other"] += caller[2]

    profile_class = getattr(bhhpm, "ExpRational", None)
    return {
        "scalars.values_built": (calls(getattr(bhhpm.QuadraticNumber, "__post_init__", None)), "count"),
        "scalars.fractions_built": (calls(fractions.Fraction.__new__), "count"),
        "expalgebra.profiles_built": (calls(profile_class and profile_class.__init__), "count"),
        "expalgebra.gcd_calls": (sum(e[1] for e in gcd), "count"),
        "expalgebra.gcd_share": (sum(e[3] for e in gcd) / total, "share"),
        "tables.transcendentals_per_cell": (transcendentals / op.cells if op.cells else 0.0, "count"),
        **{f"{layer}.self_s": (self_s[layer], "s") for layer in LAYERS},
    }


def write_top_frames(op: TracedOp, run: Run, samples: dict[str, list[float]], count: int = 30) -> str:
    """The op's top frames by cumulative time, as a text artifact."""
    stream = io.StringIO()
    op.stats.stream = stream
    op.stats.sort_stats("cumulative").print_stats(count)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{run.workload}.seed{run.seed}.top_frames.txt"
    path.write_text(f"# {op.label}: {samples['trace.traced_s'][0]:.3f} s traced, "
                    f"{samples['trace.untraced_s'][0]:.3f} s untraced (reference seconds)\n"
                    + stream.getvalue(), encoding="utf-8")
    return str(path.relative_to(OUT.parent))
