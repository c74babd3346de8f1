"""Relative-error tables, reference comparison, and CSV/markdown emission.

A table cell holds |S_m(x,t) - u_exact(x,t)| / |u_exact(x,t)| in extended
precision (the units the reference tables print; multiply by 100 for
percent), formed on raw ``mpmath.libmp`` values: per table, each t, -speed*t and
t^k (``scalars.powers``) and the wave's constants are rounded once; per x, x is and the
expansion gives c_0(x)..c_K(x); per (x, t), the wave gives u_exact, and S_m is a running
sum of c_k(x)*t^k; per cell, S_m - u_exact and one quotient by u_exact remain, each one
libmp ``normalize`` on exact integers, and the cell, its sign cleared, becomes an mpf.
Only ``mpf_exp``, and ``mpf_pow_int`` past 1000 bits, keep libmp's own calls.  The wave is that of
the expansion's problem: its logistic form gamma/(1 + exp(z)) is nonzero at
every point of a front the series accepts, so every cell is a number.
Against the reference tables, each cell's verdict is set from its two numbers alone.
"""

from __future__ import annotations

from fractions import Fraction
from typing import IO, Iterable, Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import mpf_neg

from . import golden
from .errors import ContractViolation, EvaluationError
from .hpm import HPMExpansion
from .scalars import (
    DEFAULT_DIGITS, _quotient, _sum, powers, running_sums, to_value, whole, working_dps,
)
from .waves import TravelingWave

CSV_HEADER = "t,m,x,relative_error"
PLOT_HEADER = "m,max_relative_error"


def sci10(value: mpf) -> str:
    """Scientific notation with 10 significant digits and a bare exponent."""
    if value == 0:
        return "0"
    text = mpmath.nstr(mpf(value), 10, strip_zeros=False, min_fixed=1, max_fixed=0)
    # nstr writes "e+12" or "e-3", never a padded exponent, and none in [1, 10)
    mantissa, _, exponent = text.partition("e")
    return f"{mantissa}e{exponent.lstrip('+') or '0'}"


def fraction_str(value: Fraction) -> str:
    """Shortest exact rendering: decimal when terminating, else p/q."""
    num, den = value.numerator, value.denominator
    # a terminating p/q has a least k with q | 10^k, and that k is below q's bit length
    k = next((k for k in range(den.bit_length()) if 10**k % den == 0), None)
    if k is None:
        return f"{num}/{den}"
    if k == 0:
        return str(num)
    text = str(abs(num) * 10**k // den).rjust(k + 1, "0")
    sign = "-" if num < 0 else ""
    return f"{sign}{text[:-k]}.{text[-k:]}"


def _exact(value, name: str) -> Fraction:
    """A grid coordinate as ``Fraction(value)``, exact; a NaN or +-inf raises
    EvaluationError, as ``to_value`` does, and anything else that Fraction does not
    take ContractViolation, naming the value."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError):
        if isinstance(value, (float, mpf)) and not mpmath.isfinite(value):
            raise EvaluationError(f"{name} = {value} is not a finite number") from None
        raise ContractViolation(f"{name} = {value!r} is no exact Fraction") from None


class ErrorTable:
    """Grid of relative errors: ``cells[i][j][k]`` is the cell at ``ts[i]``,
    ``orders[j]`` and ``xs[k]``."""

    def __init__(self, orders: tuple[int, ...], ts: tuple[Fraction, ...],
                 xs: tuple[Fraction, ...], cells: list[list[list[mpf]]],
                 case_id: int | None = None, precision: int = DEFAULT_DIGITS) -> None:
        self.orders = orders
        self.ts = ts
        self.xs = xs
        self.cells = cells
        self.case_id = case_id
        self.precision = precision

    def cell(self, t: Fraction, m: int, x: Fraction) -> mpf:
        t, x = _exact(t, "t"), _exact(x, "x")
        try:
            i, j, k = self.ts.index(t), self.orders.index(m), self.xs.index(x)
        except ValueError:
            raise ContractViolation(f"the table has no cell at t = {fraction_str(t)}, "
                                    f"m = {m!r}, x = {fraction_str(x)}") from None
        return self.cells[i][j][k]

    def rows(self) -> Iterable[tuple[Fraction, int, tuple[mpf, ...]]]:
        for t, block in zip(self.ts, self.cells):
            for m, row in zip(self.orders, block):
                yield t, m, tuple(row)

    def max_cell(self, m: int | None = None) -> mpf:
        """Largest cell, optionally restricted to one order."""
        return max(max(row) for _, mm, row in self.rows() if m in (None, mm))


def build_error_table(
    expansion: HPMExpansion,
    wave: TravelingWave,
    orders: Sequence[int],
    ts: Sequence[Fraction],
    xs: Sequence[Fraction],
    digits: int = DEFAULT_DIGITS,
    case_id: int | None = None,
) -> ErrorTable:
    """Evaluate every requested partial sum against the exact wave, which
    must be that of the expansion's problem."""
    orders = tuple(whole(m, "an order") for m in orders)
    ts = tuple(_exact(t, "t") for t in ts)
    xs = tuple(_exact(x, "x") for x in xs)
    if orders and not 1 <= min(orders) <= max(orders) <= expansion.order + 1:
        raise ContractViolation(
            f"table needs partial sums {orders}; expansion has {expansion.order + 1} terms"
        )
    if wave.problem != expansion.problem:
        raise ContractViolation("table needs the wave of the expansion's problem")
    cells: list[list[list[mpf]]] = [[[] for _ in orders] for _ in ts]
    with working_dps(digits):
        prec, times = mpmath.mp.prec, [to_value(t) for t in ts]
        count, constants, make_mpf = max(orders, default=0), wave._constants(), mpmath.mp.make_mpf
        per_time = [(wave._lag(time), powers(time, count, prec)) for time in times]
        for x in map(to_value, xs):
            profiles = expansion._values_at(x)
            for (lag, t_powers), block in zip(per_time, cells):
                exact = wave._value_at(x, lag, constants)
                minus, sums = mpf_neg(exact), running_sums(profiles, t_powers, prec)
                for m, row in zip(orders, block):
                    _, man, exp, bc = _quotient(_sum(sums[m - 1], minus, prec), exact, prec)
                    row.append(make_mpf((0, man, exp, bc)))
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
    """One reference cell against the computed one, judged from the two
    numbers alone: ``deviation`` is |computed - reference|/reference, ``ratio``
    is computed/reference, and ``rule`` is "relative" or "magnitude"."""

    def __init__(self, t: Fraction, m: int, x: Fraction, computed: mpf, reference: mpf) -> None:
        self.t, self.m, self.x = t, m, x
        self.computed = computed
        self.reference = reference
        self.deviation = abs(computed - reference) / abs(reference)
        self.ratio = computed / reference
        if reference >= SMALL_CELL:
            self.rule, self.ok = "relative", self.deviation <= RELATIVE_TOLERANCE
        else:
            self.rule = "magnitude"
            self.ok = MAGNITUDE_BAND[0] <= self.ratio <= MAGNITUDE_BAND[1]

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
    def __init__(self, case_id: int, checks: list[CellCheck]) -> None:
        self.case_id = case_id
        self.checks = checks

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
        return (
            f"case {self.case_id}: {'PASS' if self.passed else 'FAIL'} "
            f"({n_ok}/{len(self.checks)} cells)\n"
            f"  worst cell: {self.worst.describe()}"
        )


def golden_compare(table: ErrorTable, case_id: int) -> GoldenComparison:
    """Per-cell comparison against the reference table for one case.

    PASS needs relative deviation <= 1e-3 wherever the reference cell is at
    least 1e-10 and a computed/reference ratio within [0.1, 10] below that.
    """
    try:
        reference = golden.REFERENCE_TABLES[case_id]
    except (KeyError, TypeError):  # TypeError: an unhashable case_id
        raise ContractViolation(f"no reference table for case {case_id!r}; "
                                "presets are 1, 2, 3") from None
    orders = golden.REFERENCE_ORDERS
    if set(table.ts) != set(golden.GRID_T) or set(table.xs) != set(golden.GRID_X):
        raise ContractViolation("table grid does not match the reference grid")
    if not set(orders) <= set(table.orders):
        raise ContractViolation(
            f"reference comparison needs orders {orders}; table has {table.orders}"
        )
    with working_dps(table.precision):
        checks = [
            CellCheck(t, m, x, table.cell(t, m, x), mpf(reference[(t, m, x)]))
            for t in golden.GRID_T for m in orders for x in golden.GRID_X
        ]
    return GoldenComparison(case_id, checks)


# --- emission ----------------------------------------------------------------

def render_csv(table: ErrorTable) -> str:
    lines = [CSV_HEADER] + [
        f"{fraction_str(t)},{m},{fraction_str(x)},{sci10(value)}"
        for t, m, row in table.rows() for x, value in zip(table.xs, row)
    ]
    return "\n".join(lines) + "\n"


def render_markdown(table: ErrorTable) -> str:
    header = "| t | terms | " + " | ".join(f"x = {fraction_str(x)}" for x in table.xs) + " |"
    sep = "|" + "---|" * (len(table.xs) + 2)
    lines = [header, sep]
    for t, m, row in table.rows():
        cells = " | ".join(sci10(v) for v in row)
        lines.append(f"| {fraction_str(t)} | S{m} | {cells} |")
    return "\n".join(lines) + "\n"


def render_plot_data(table: ErrorTable) -> str:
    """One ``m,max`` row per order: the largest cell over the grid."""
    lines = [PLOT_HEADER] + [f"{m},{sci10(table.max_cell(m))}" for m in table.orders]
    return "\n".join(lines) + "\n"


def emit_table(table: ErrorTable, fmt: str, stream: IO[str]) -> None:
    """Write the table as csv or markdown to a text stream."""
    if fmt == "csv":
        stream.write(render_csv(table))
    elif fmt == "markdown":
        stream.write(render_markdown(table))
    else:
        raise ContractViolation(f"unknown table format {fmt!r}")
