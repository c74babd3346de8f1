"""Independent checks of every output the benchmark times.

Series terms and table cells are compared with the Taylor-oracle route:
the exact wave's time-Taylor coefficients from
``TravelingWave.time_taylor_coefficients``, summed into partial sums here.
Nothing is compared with earlier output of the program.  Only names in
``bhhpm.__all__`` and public methods of those classes are used.
"""

from __future__ import annotations

import re
from fractions import Fraction

import mpmath
from mpmath import mpf

from bhhpm import deng_wave, working_dps

#: Digits for oracle values; the program's tables run at 30.
ORACLE_DIGITS = 40
#: Series coefficients must match the oracle to this relative deviation.
SERIES_TOLERANCE = mpf("1e-25")
#: Every cell (a relative error) must match the oracle's to this,
#: absolutely.  The program works at 30 significant digits, so a cell far
#: below 1 is a difference that has cancelled most of them: a cell of 2e-18
#: on the slow front keeps about 8 correct digits, and is off by 3e-26.
CELL_TOLERANCE = mpf("1e-20")
#: Printed cells carry 10 significant digits; cells on the absolute floor
#: above may differ from the oracle's in more of them.
PRINTED_TOLERANCE = mpf("1e-8")
#: Closed forms of v_1..v_3 must hold to this relative deviation.
CLOSED_FORM_TOLERANCE = mpf("1e-40")

#: Sample points of the series checks (criterion 5's plus x = 2).
SERIES_X = (Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2), Fraction(3))

#: The reference-table grid of PAPER.md.
PAPER_T = (Fraction(1, 10), Fraction(3, 10), Fraction(2, 5))
PAPER_X = (Fraction(1), Fraction(2), Fraction(3))
GOLDEN_ORDERS = (1, 3, 5, 6)

#: The 25 reference cells that sit on the source tables' noise floor:
#: ``bhhpm golden`` must report exactly these as FAIL, by (case, t, m, x).
KNOWN_GOLDEN_FAILURES = frozenset(
    (case, Fraction(t), int(m), Fraction(x))
    for case, cells in {
        1: ["0.1 5 1", "0.1 5 2", "0.1 5 3", "0.1 6 2", "0.1 6 3", "0.3 5 2", "0.3 5 3",
            "0.3 6 1", "0.3 6 2", "0.3 6 3", "0.4 6 1", "0.4 6 2", "0.4 6 3"],
        2: ["0.1 5 1", "0.1 5 2", "0.1 5 3", "0.1 6 1", "0.1 6 3", "0.3 6 2", "0.3 6 3",
            "0.4 6 3"],
        3: ["0.1 5 2", "0.1 5 3", "0.1 6 2", "0.1 6 3"],
    }.items()
    for t, m, x in (cell.split() for cell in cells)
)

Cells = dict[tuple[Fraction, int, Fraction], "mpf | None"]


def oracle_cells(problem, xs, ts, orders, digits: int = ORACLE_DIGITS) -> Cells:
    """|S_m - u| / |u| with S_m summed from the oracle's Taylor coefficients;
    None where the exact wave vanishes."""
    wave = deng_wave(problem)
    top = max(orders) - 1
    cells: Cells = {}
    with working_dps(digits):
        for x in xs:
            coeffs = wave.time_taylor_coefficients(x, top, digits)
            for t in ts:
                u = wave.eval_at(x, t, digits)
                tv = mpf(t.numerator) / t.denominator
                sums, total = [], mpf(0)
                for k, c in enumerate(coeffs):
                    total += c * tv**k
                    sums.append(total)
                for m in orders:
                    cells[(t, m, x)] = None if u == 0 else abs(sums[m - 1] - u) / abs(u)
    return cells


def cell_within(value: mpf, want: mpf, relative: mpf) -> bool:
    """|value - want| at most ``relative`` of ``want``, or CELL_TOLERANCE."""
    return abs(value - want) <= max(relative * abs(want), CELL_TOLERANCE)


def compare_cells(got: Cells, expected: Cells, relative: mpf = mpf(0)) -> list[str]:
    """Every expected cell present, defined and within ``cell_within``."""
    problems = []
    if set(got) != set(expected):
        problems.append(f"cell set differs: {len(got)} cells, expected {len(expected)}")
    for key in sorted(set(got) & set(expected)):
        value, want = got[key], expected[key]
        where = "t={} m={} x={}".format(*key)
        if value is None:
            problems.append(f"undefined cell at {where}")
        elif want is None:
            problems.append(f"oracle undefined at {where}")
        elif not cell_within(value, want, relative):
            problems.append(f"cell {where}: {mpmath.nstr(value, 12)} vs oracle {mpmath.nstr(want, 12)}")
    return problems[:5]


def cli_problems(run, expected_code: int) -> list[str]:
    problems = []
    if "Traceback" in run.stderr:
        problems.append("traceback: " + run.stderr.strip().splitlines()[-1])
    if run.code != expected_code:
        problems.append(f"exit {run.code}, expected {expected_code}: {run.stderr.strip()[:200]}")
    return problems


_CSV_ROW = re.compile(r"^([-\d./]+),(\d+),([-\d./]+),(\S+)$")
_PLOT_ROW = re.compile(r"^(\d+),(\S+)$")


def parse_csv_table(stdout: str) -> tuple[Cells, dict[int, mpf]]:
    """Cells and the per-order maxima printed by ``run --format csv``."""
    cells: Cells = {}
    maxima: dict[int, mpf] = {}
    for line in stdout.splitlines():
        row = _CSV_ROW.match(line)
        if row:
            t, m, x, value = row.groups()
            cells[(Fraction(t), int(m), Fraction(x))] = None if value == "undefined" else mpf(value)
            continue
        plot = _PLOT_ROW.match(line)
        if plot:
            maxima[int(plot.group(1))] = mpf(plot.group(2))
    return cells, maxima


def check_run_output(run, expected: Cells) -> list[str]:
    """``run --format csv``: exit 0, every cell and every per-order maximum
    equal to the oracle's within printing precision."""
    problems = cli_problems(run, 0)
    if problems:
        return problems
    cells, maxima = parse_csv_table(run.stdout)
    problems = compare_cells(cells, expected, PRINTED_TOLERANCE)
    orders = sorted({m for _, m, _ in expected})
    with working_dps(ORACLE_DIGITS):
        for m in orders:
            want = max(v for (_, mm, _), v in expected.items() if mm == m and v is not None)
            got = maxima.get(m)
            if got is None or not cell_within(got, want, PRINTED_TOLERANCE):
                problems.append(f"plot row m={m}: {got} vs oracle {mpmath.nstr(want, 12)}")
    return problems


_GOLDEN_CASE = re.compile(r"^case (\d): (PASS|FAIL) \((\d+)/(\d+) cells\)$")
_GOLDEN_FAIL = re.compile(r"^  FAIL t=(\S+) S(\d+) x=(\S+): computed (\S+) vs reference")


def check_golden_output(run, expected: dict[int, Cells]) -> list[str]:
    """``golden``: exit 1, exactly the known failing cells, each case's
    summary consistent with them, and every printed computed value equal
    to the oracle's."""
    problems = cli_problems(run, 1)
    if problems:
        return problems
    failing, summaries = set(), {}
    case = None
    for line in run.stdout.splitlines():
        head = _GOLDEN_CASE.match(line)
        if head:
            case = int(head.group(1))
            summaries[case] = (head.group(2), int(head.group(3)), int(head.group(4)))
            continue
        row = _GOLDEN_FAIL.match(line)
        if row and case is not None:
            t, m, x, computed = row.groups()
            key = (Fraction(t), int(m), Fraction(x))
            failing.add((case,) + key)
            want = expected[case].get(key)
            if want is None or not cell_within(mpf(computed), want, PRINTED_TOLERANCE):
                problems.append(f"case {case} cell {key}: computed {computed} vs oracle {want}")
    if failing != KNOWN_GOLDEN_FAILURES:
        extra = sorted(failing - KNOWN_GOLDEN_FAILURES)
        missing = sorted(KNOWN_GOLDEN_FAILURES - failing)
        problems.append(f"failing cells differ: new {extra[:3]}, gone {missing[:3]}")
    for case in (1, 2, 3):
        n_fail = sum(1 for c in KNOWN_GOLDEN_FAILURES if c[0] == case)
        if summaries.get(case) != ("FAIL", 36 - n_fail, 36):
            problems.append(f"case {case} summary {summaries.get(case)}")
    return problems


_TAYLOR_LINE = re.compile(r"^case (\d): max coefficient deviation (\S+) \((PASS|FAIL) at 1e-25\)$")


def check_taylor_output(run) -> list[str]:
    """``taylor-check``: exit 0 and every case's deviation at most 1e-25."""
    problems = cli_problems(run, 0)
    seen = set()
    for line in run.stdout.splitlines():
        row = _TAYLOR_LINE.match(line)
        if row:
            seen.add(int(row.group(1)))
            if mpf(row.group(2)) > SERIES_TOLERANCE:
                problems.append(f"case {row.group(1)} deviation {row.group(2)}")
    if seen != {1, 2, 3}:
        problems.append(f"cases reported: {sorted(seen)}")
    return problems


def series_values(expansion, x, digits: int) -> list[mpf]:
    """v_0(x, 1), ..., v_K(x, 1) as differences of consecutive partial sums.

    Every v_k is c_k(x)*t^k, so its value at t = 1 is its t^k coefficient.
    """
    sums = [expansion.partial_sum_at(m, x, 1, digits) for m in range(1, expansion.order + 2)]
    return [sums[0]] + [sums[k] - sums[k - 1] for k in range(1, len(sums))]


def check_series(expansion, problem, closed_form=None, digits: int = 50) -> tuple[list[str], mpf]:
    """Orders 0..K against the oracle coefficients, and v_1, v_2, ... against
    ``closed_form(x)`` when given; (problems, worst oracle deviation)."""
    wave = deng_wave(problem)
    worst = mpf(0)
    problems = []
    with working_dps(digits):
        for x in SERIES_X:
            values = series_values(expansion, x, digits)
            oracle = wave.time_taylor_coefficients(x, expansion.order, digits)
            # a coefficient that vanishes at x (a symmetry point) is
            # measured against a small share of the largest one instead
            floor = max(abs(c) for c in oracle) * mpf("1e-10")
            for k, value in enumerate(values):
                worst = max(worst, abs(value - oracle[k]) / max(abs(oracle[k]), floor))
            forms = closed_form(x, digits) if closed_form else []
            for k, want in enumerate(forms, start=1):
                if abs(values[k] - want) > CLOSED_FORM_TOLERANCE * max(abs(f) for f in forms):
                    problems.append(f"v_{k}(x={x}) = {mpmath.nstr(values[k], 15)}, "
                                    f"closed form {mpmath.nstr(want, 15)}")
    if worst > SERIES_TOLERANCE:
        problems.append(f"series deviation {mpmath.nstr(worst, 5)} > 1e-25")
    return problems, worst


def case1_closed_forms(x: Fraction, digits: int) -> list[mpf]:
    """v_1..v_3 of case 1 at t = 1 (PAPER.md; v_3 is the published
    -1/48 (E^2 - 4 + E^-2)/(E + E^-1)^4 t^3)."""
    with working_dps(digits):
        E2 = mpmath.exp(mpmath.sqrt(2) / 2 * (mpf(x.numerator) / x.denominator))
        return [
            -E2 / (2 * (E2 + 1) ** 2),
            -(E2**2 - E2) / (8 * (E2 + 1) ** 3),
            -(E2**3 - 4 * E2**2 + E2) / (48 * (E2 + 1) ** 4),
        ]
