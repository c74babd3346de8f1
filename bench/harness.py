"""Shared plumbing: locating the checkout, timing spans of work, the speed
reference every time is scaled by, counting ops, and summary statistics.

Times are reported in reference seconds.  On a CPU shared with other
tenants, speed can swing by a quarter or more for tens of seconds at a
time, which no statistic within a run can remove.  So the benchmark times
a fixed pure-Python kernel (exact Fraction arithmetic, independent of
bhhpm) on the same core, between spans of work, and scales each span by
``REFERENCE_KERNEL_S`` over the kernel time measured around it.  On a
quiet machine a reference second is a wall second; wall-clock medians are
reported alongside.
"""

from __future__ import annotations

import os
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Every run must end well inside the 180 s a run is allowed.
HARD_LIMIT_S = 165.0

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_BEYOND = 10

#: The speed kernel's time per call on a quiet 2-core x86-64 VM with CPython 3.11.
REFERENCE_KERNEL_S = 0.011
#: Least time between two speed measurements; each spends at least
#: MIN_KERNEL_CALLS kernel calls, and a tenth of the time since the last one.
SPEED_EVERY_S = 0.5
MIN_KERNEL_CALLS = 10
MAX_KERNEL_CALLS = 40


def speed_kernel() -> Fraction:
    """Fixed pure-Python work: the harmonic number H_2999 in exact arithmetic."""
    total = Fraction(0)
    for i in range(1, 3000):
        total += Fraction(1, i)
    return total


def child_env() -> dict[str, str]:
    """Environment for ``python -m bhhpm``: the checkout's sources, default
    precision."""
    env = dict(os.environ)
    env.pop("HPM_PRECISION", None)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    return env


def median(values: list[float]) -> float:
    return statistics.median(values)


def tail(values: list[float]) -> tuple[float, float] | None:
    """(value, percentile) of the highest percentile with at least
    ``TAIL_BEYOND`` samples beyond it; None when there are too few samples."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def peak_rss_mb() -> float:
    """Peak resident memory of this process or of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


@dataclass
class CliRun:
    seconds: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Span:
    """One timed piece of work, recorded under ``names``; ``op`` is the index
    of the op it belongs to, and ``total`` names a series that gets the sum
    of the op's spans carrying it."""

    names: tuple[str, ...]
    start: float
    end: float
    op: int | None
    total: str | None = None


@dataclass
class Run:
    """State of one benchmark invocation: deadline, seeded inputs, speed
    measurements, timed spans and the op tally."""

    workload: str
    seed: int
    seconds: float
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    notes: dict[str, object] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    #: (end time, kernel seconds per call) of every speed measurement
    speeds: list[tuple[float, float]] = field(default_factory=list)
    #: index of the op being run; spans recorded meanwhile belong to it
    op: int | None = None

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def remaining(self) -> float:
        return HARD_LIMIT_S - self.elapsed()

    # --- speed reference ---------------------------------------------------

    def measure_speed(self, force: bool = False) -> None:
        """Time the speed kernel, unless it ran less than SPEED_EVERY_S ago.
        Call it between spans, never inside one."""
        now = time.perf_counter()
        since = now - self.speeds[-1][0] if self.speeds else 0.0
        if self.speeds and not force and since < SPEED_EVERY_S:
            return
        calls = min(MAX_KERNEL_CALLS, max(MIN_KERNEL_CALLS, round(0.1 * since / REFERENCE_KERNEL_S)))
        for _ in range(calls):
            speed_kernel()
        end = time.perf_counter()
        self.speeds.append((end, (end - now) / calls))

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per wall second over [start, end]: from the last
        speed measurement before the span and the first one after it."""
        before = [s for t, s in self.speeds if t <= start] or [self.speeds[0][1]]
        after = [s for t, s in self.speeds if t >= end] or [self.speeds[-1][1]]
        return REFERENCE_KERNEL_S / ((before[-1] + after[0]) / 2)

    # --- spans ---------------------------------------------------------------

    def timed(self, names: tuple[str, ...], fn, *args, total: str | None = None):
        """Run ``fn(*args)`` as one span of the current op; returns its result."""
        start = time.perf_counter()
        result = fn(*args)
        self.spans.append(Span(names, start, time.perf_counter(), self.op, total))
        return result

    def cli(self, args: tuple[str, ...], names: tuple[str, ...] = (),
            runner: tuple[str, ...] = ("-m", "bhhpm")) -> CliRun:
        """Run ``python -m bhhpm ARGS`` to completion as one span.

        A run that overstays the hard limit is killed and waited for, and
        comes back with exit code -9.
        """
        command = [sys.executable, *runner, *args]
        start = time.perf_counter()
        try:
            done = subprocess.run(
                command, env=child_env(), cwd=ROOT, capture_output=True,
                text=True, timeout=max(1.0, self.remaining()),
            )
            result = (done.returncode, done.stdout, done.stderr)
        except subprocess.TimeoutExpired as exc:
            result = (-9, _text(exc.stdout), _text(exc.stderr) + "\ntimed out")
        end = time.perf_counter()
        self.spans.append(Span(names, start, end, self.op))
        return CliRun(end - start, *result)

    def import_spans(self, module: str, repeats: int, name: str) -> None:
        """Fresh interpreters importing ``module``, one span each.

        One unrecorded import first, so byte-code caches are warm.
        """
        for i in range(repeats + 1):
            self.measure_speed()
            run = self.cli(("-c", f"import {module}"), names=(name,) if i else (), runner=())
            if run.code != 0:
                raise RuntimeError(f"import {module} failed: {run.stderr.strip()}")
        self.measure_speed(force=True)

    def samples(self) -> dict[str, list[float]]:
        """Every named series in reference seconds, every total, and per op
        ``op_s`` (the sum of its spans) and ``op_wall_s``."""
        out: dict[str, list[float]] = {}
        sums: dict[tuple[str, int | None], float] = {}
        for span in self.spans:
            wall = span.end - span.start
            value = wall * self.scale(span.start, span.end)
            for name in span.names:
                out.setdefault(name, []).append(value)
            for total, part in ((span.total, value), ("op_s", value), ("op_wall_s", wall)):
                if total and span.op is not None:
                    sums[(total, span.op)] = sums.get((total, span.op), 0.0) + part
        for (total, _), value in sums.items():
            out.setdefault(total, []).append(value)
        return out

    def op_done(self, what: str, problems: list[str]) -> bool:
        """Count one attempted op; any problem makes it a failed op."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.extend(f"{what}: {p}" for p in problems)
        return not problems


def _text(data: bytes | str | None) -> str:
    if data is None:
        return ""
    return data if isinstance(data, str) else data.decode(errors="replace")


def per_call(fn, reps: int, batches: int) -> float:
    """Median over batches of the mean wall seconds per call of ``fn()``."""
    results = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(reps):
            fn()
        results.append((time.perf_counter() - start) / reps)
    return median(results)
