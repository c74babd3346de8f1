"""Relative-error tables, reference comparison, and CSV/markdown emission.

A table cell holds |S_m(x,t) - u_exact(x,t)| / |u_exact(x,t)| in extended
precision (the units the reference tables print; multiply by 100 for
percent).  Each x costs one vector c_0(x)..c_K(x) from
``HPMExpansion.profiles_at``; every S_m at (x, t) is a running sum of
c_k(x)*t^k over it.  Cells where the exact solution vanishes are stored as
None ("undefined"); the logistic form of the wave keeps it nonzero on any
front the series accepts.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, Iterable, Sequence

import mpmath
from mpmath import mpf

from . import golden
from .errors import ContractViolation
from .hpm import HPMExpansion
from .scalars import DEFAULT_DIGITS, to_mpf, working_dps
from .waves import TravelingWave

CellKey = tuple[Fraction, int, Fraction]

CSV_HEADER = "t,m,x,percent_relative_error"
PLOT_HEADER = "m,max_percent_relative_error"


def sci10(value: mpf | None) -> str:
    """Scientific notation with 10 significant digits and a bare exponent."""
    if value is None:
        return "undefined"
    if value == 0:
        return "0"
    text = mpmath.nstr(
        mpf(value), 10, strip_zeros=False, min_fixed=1, max_fixed=0
    )
    mantissa, _, exponent = text.partition("e")
    exponent = exponent.lstrip("+")
    if exponent.startswith("-"):
        exponent = "-" + exponent[1:].lstrip("0")
    else:
        exponent = exponent.lstrip("0")
    return f"{mantissa}e{exponent or '0'}"


def fraction_str(value: Fraction) -> str:
    """Shortest exact rendering: decimal when terminating, else p/q."""
    den = value.denominator
    twos = fives = 0
    while den % 2 == 0:
        den //= 2
        twos += 1
    while den % 5 == 0:
        den //= 5
        fives += 1
    if den != 1:
        return f"{value.numerator}/{value.denominator}"
    shift = max(twos, fives)
    scaled = value.numerator * 10**shift // value.denominator
    if shift == 0:
        return str(scaled)
    text = str(abs(scaled)).rjust(shift + 1, "0")
    sign = "-" if scaled < 0 else ""
    return f"{sign}{text[:-shift]}.{text[-shift:]}"


class ErrorTable:
    """Grid of relative errors, rows keyed by (t, m), columns by x."""

    def __init__(self, orders: tuple[int, ...], ts: tuple[Fraction, ...],
                 xs: tuple[Fraction, ...], cells: dict[CellKey, mpf | None],
                 case_id: int | None = None, precision: int = DEFAULT_DIGITS) -> None:
        self.orders = orders
        self.ts = ts
        self.xs = xs
        self.cells = cells
        self.case_id = case_id
        self.precision = precision

    def cell(self, t: Fraction, m: int, x: Fraction) -> mpf | None:
        return self.cells[(Fraction(t), m, Fraction(x))]

    def rows(self) -> Iterable[tuple[Fraction, int, tuple[mpf | None, ...]]]:
        for t in self.ts:
            for m in self.orders:
                yield t, m, tuple(self.cells[(t, m, x)] for x in self.xs)

    def max_cell(self, m: int | None = None) -> mpf:
        """Largest defined cell, optionally restricted to one order."""
        orders = self.orders if m is None else (m,)
        values = [
            self.cells[(t, mm, x)]
            for t in self.ts
            for mm in orders
            for x in self.xs
            if self.cells[(t, mm, x)] is not None
        ]
        if not values:
            raise ContractViolation("table has no defined cells")
        return max(values)


def build_error_table(
    expansion: HPMExpansion,
    wave: TravelingWave,
    orders: Sequence[int],
    ts: Sequence[Fraction],
    xs: Sequence[Fraction],
    digits: int = DEFAULT_DIGITS,
    case_id: int | None = None,
) -> ErrorTable:
    """Evaluate every requested partial sum against the exact wave."""
    orders = tuple(orders)
    ts = tuple(Fraction(t) for t in ts)
    xs = tuple(Fraction(x) for x in xs)
    if orders and not 1 <= min(orders) <= max(orders) <= expansion.order + 1:
        raise ContractViolation(
            f"table needs partial sums {orders}; expansion has {expansion.order + 1} terms"
        )
    cells: dict[CellKey, mpf | None] = {}
    with working_dps(digits):
        for x in xs:
            profiles = expansion.profiles_at(x, digits)
            for t in ts:
                exact = wave.eval_at(x, t, digits)
                # S_1, S_2, ..: the running sum of c_k(x)*t^k
                time, total, sums = to_mpf(t), mpf(0), []
                for k, c in enumerate(profiles):
                    total += c * time**k
                    sums.append(total)
                for m in orders:
                    if exact == 0:
                        cells[(t, m, x)] = None
                        continue
                    cells[(t, m, x)] = +abs(sums[m - 1] - exact) / abs(exact)
    return ErrorTable(
        orders=orders, ts=ts, xs=xs, cells=cells, case_id=case_id, precision=digits
    )


# --- reference comparison ---------------------------------------------------

#: Strict rule: relative deviation bound for reference cells >= SMALL_CELL.
RELATIVE_TOLERANCE = mpf("1e-3")
#: Cells below this magnitude only need to match within a factor of 10.
SMALL_CELL = mpf("1e-10")
MAGNITUDE_BAND = (mpf("0.1"), mpf("10"))


class CellCheck:
    """One reference cell against the computed one.  ``rule`` is "relative"
    or "magnitude", ``deviation`` is |computed - reference|/reference and
    ``ratio`` is computed/reference."""

    def __init__(self, t: Fraction, m: int, x: Fraction, computed: mpf, reference: mpf,
                 rule: str, deviation: mpf, ratio: mpf, ok: bool) -> None:
        self.t = t
        self.m = m
        self.x = x
        self.computed = computed
        self.reference = reference
        self.rule = rule
        self.deviation = deviation
        self.ratio = ratio
        self.ok = ok

    @property
    def badness(self) -> mpf:
        """How far past its rule the cell is (1.0 = exactly at the limit)."""
        if self.rule == "relative":
            return self.deviation / RELATIVE_TOLERANCE
        r = max(self.ratio, 1 / self.ratio) if self.ratio > 0 else mpf("inf")
        return r / MAGNITUDE_BAND[1]

    def describe(self) -> str:
        flag = "ok  " if self.ok else "FAIL"
        return (
            f"{flag} t={fraction_str(self.t)} S{self.m} x={fraction_str(self.x)}: "
            f"computed {sci10(self.computed)} vs reference {sci10(self.reference)} "
            f"({self.rule} rule, deviation {sci10(self.deviation)})"
        )


class GoldenComparison:
    def __init__(self, case_id: int, checks: list[CellCheck] | None = None) -> None:
        self.case_id = case_id
        self.checks = [] if checks is None else checks

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def worst(self) -> CellCheck:
        return max(self.checks, key=lambda c: c.badness)

    def failures(self) -> list[CellCheck]:
        return [c for c in self.checks if not c.ok]

    def summary(self) -> str:
        n_ok = sum(c.ok for c in self.checks)
        lines = [
            f"case {self.case_id}: {'PASS' if self.passed else 'FAIL'} "
            f"({n_ok}/{len(self.checks)} cells)",
            f"  worst cell: {self.worst.describe()}",
        ]
        return "\n".join(lines)


def golden_compare(table: ErrorTable, case_id: int) -> GoldenComparison:
    """Per-cell comparison against the reference table for one case.

    PASS needs relative deviation <= 1e-3 wherever the reference cell is at
    least 1e-10 and a computed/reference ratio within [0.1, 10] below that.
    """
    reference = golden.REFERENCE_TABLES[case_id]
    orders = golden.REFERENCE_ORDERS
    if set(table.ts) != set(golden.GRID_T) or set(table.xs) != set(golden.GRID_X):
        raise ContractViolation("table grid does not match the reference grid")
    if not set(orders) <= set(table.orders):
        raise ContractViolation(
            f"reference comparison needs orders {orders}; table has {table.orders}"
        )
    result = GoldenComparison(case_id=case_id)
    with working_dps(table.precision):
        for t in golden.GRID_T:
            for m in orders:
                for x in golden.GRID_X:
                    ref = mpf(reference[(t, m, x)])
                    comp = table.cells[(t, m, x)]
                    if comp is None:
                        raise ContractViolation(
                            f"undefined cell at t={t}, m={m}, x={x}"
                        )
                    deviation = abs(comp - ref) / abs(ref)
                    ratio = comp / ref
                    if ref >= SMALL_CELL:
                        rule = "relative"
                        ok = deviation <= RELATIVE_TOLERANCE
                    else:
                        rule = "magnitude"
                        ok = MAGNITUDE_BAND[0] <= ratio <= MAGNITUDE_BAND[1]
                    result.checks.append(
                        CellCheck(
                            t=t, m=m, x=x, computed=comp, reference=ref,
                            rule=rule, deviation=+deviation, ratio=+ratio, ok=ok,
                        )
                    )
    return result


# --- emission ----------------------------------------------------------------

def render_csv(table: ErrorTable) -> str:
    lines = [CSV_HEADER]
    for t, m, row in table.rows():
        for x, value in zip(table.xs, row):
            lines.append(
                f"{fraction_str(t)},{m},{fraction_str(x)},{sci10(value)}"
            )
    return "\n".join(lines) + "\n"


def render_markdown(table: ErrorTable) -> str:
    header = "| t | terms | " + " | ".join(f"x = {fraction_str(x)}" for x in table.xs) + " |"
    sep = "|" + "---|" * (len(table.xs) + 2)
    lines = [header, sep]
    for t, m, row in table.rows():
        cells = " | ".join(sci10(v) for v in row)
        lines.append(f"| {fraction_str(t)} | S{m} | {cells} |")
    return "\n".join(lines) + "\n"


def convergence_summary(table: ErrorTable) -> list[tuple[int, mpf]]:
    """(m, max-over-grid cell) pairs for convergence plotting."""
    return [(m, table.max_cell(m)) for m in table.orders]


def render_plot_data(table: ErrorTable) -> str:
    lines = [PLOT_HEADER]
    for m, value in convergence_summary(table):
        lines.append(f"{m},{sci10(value)}")
    return "\n".join(lines) + "\n"


def emit_table(table: ErrorTable, fmt: str, stream: IO[str]) -> None:
    """Write the table as csv or markdown to a text stream."""
    if fmt == "csv":
        stream.write(render_csv(table))
    elif fmt == "markdown":
        stream.write(render_markdown(table))
    else:
        raise ValueError(f"unknown table format {fmt!r}")
