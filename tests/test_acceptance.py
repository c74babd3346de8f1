"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.

Criteria 1 and 2 compare against reference tables printed to about 10
significant digits.  The reference's own u(x, t) is off by less than A*1e-9
absolutely (A = gamma/2, the front's amplitude), by the same amount at every
m of a grid point, so each reference cell may be off by up to A*1e-9/|u|:
from 5.6e-10 (case 1) to 2.8e-8 (case 3 at x = 3, t = 0.4).  Cells whose
error |S_m - u|/|u| is itself that small, all of them S5 or S6 cells, miss
the per-cell rule of ``tables.golden_compare`` (13, 8 and 4 cells in cases
1-3), and ``bhhpm golden`` reports them as FAIL.  Criteria 1 and 2 accept a
cell that misses the rule only when it is shown to lie on that floor and a
60-digit Taylor-oracle partial sum agrees with it; criterion 5 (a 1e-25
dual-route coefficient check over every x of the reference grid) and
criterion 3 (the prose error claims) pin the computed values themselves.
"""

import random
import time
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from bhhpm import (
    BHProblem,
    ConfigConflictError,
    ConfigError,
    ConfigNumberError,
    ConfigSyntaxError,
    GoldenComparison,
    HPMExpansion,
    QuadraticNumber,
    RunConfig,
    build_error_table,
    case_preset,
    deng_wave,
    golden_compare,
    max_taylor_deviation,
    parse_config,
    render_config,
    run_hpm,
    working_dps,
)
from bhhpm.config import default_report_orders
from bhhpm.hpm import _delta, _lattice, _sum_products
from bhhpm.scalars import to_mpf
from bhhpm.tables import CellCheck
from bhhpm.golden import (
    DISPLAY_ORDERS,
    GRID_T,
    GRID_X,
    MAX_S6_PERCENT_CLAIM,
    REFERENCE_ORDERS,
)

from conftest import (
    add, matches_reference, mul, pde_residual, quad, random_poly, random_quad, reference_terms,
    run_cli, sigma_value, t_power,
)
from test_config import random_config

PRECISION = 30
#: Digits of the Taylor-oracle partial sums that vouch for floor cells.
ORACLE_DIGITS = 60
#: A floor cell must match the oracle's partial sum to this, absolutely.
ORACLE_CELL_TOLERANCE = mpf("1e-20")
#: Bound on the reference's own absolute error in u, in units of the
#: amplitude A: one unit in the 9th significant digit.  It holds at all 108
#: reference cells (at most 0.68*A*1e-9), not only at those that miss the rule.
REFERENCE_U_ERROR = mpf("1e-9")
#: Documented number of cells per case that miss the stated rule and lie on
#: the reference floor; a change of this number is a regression.
FLOOR_CELLS = {1: 13, 2: 8, 3: 4}


def announce(number: int, name: str, passed: bool, detail: str = "") -> None:
    status = "PASS" if passed else "FAIL"
    line = f"ACCEPTANCE {number} ({name}): {status}"
    if detail:
        line += f" — {detail}"
    print(line)


def reference_run(case_id: int, expansion: HPMExpansion | None = None) -> GoldenComparison:
    problem = case_preset(case_id)
    if expansion is None:
        expansion = run_hpm(problem, 5)
    wave = deng_wave(problem)
    table = build_error_table(
        expansion,
        wave,
        orders=REFERENCE_ORDERS,
        ts=GRID_T,
        xs=GRID_X,
        digits=PRECISION,
        case_id=case_id,
    )
    return golden_compare(table, case_id)


def scaled_last_term(expansion: HPMExpansion, factor: Fraction = Fraction(101, 100)) -> HPMExpansion:
    """The expansion with its last coefficient c_K scaled by ``factor``
    exactly, so that of its partial sums only S_(K+1) = S_K + factor*v_K moves."""
    u, d = expansion.series, expansion.problem.radicand
    return HPMExpansion(expansion.problem, u[:-1] + (mul(_lattice([factor], d), u[-1], d),))


def floor_verdict(comparison: GoldenComparison) -> tuple[list[CellCheck], list[str]]:
    """Split the cells that miss the stated rule into floor cells and rejects.

    A cell is on the reference floor when both hold:
    1. |computed - reference| * |u| <= A * REFERENCE_U_ERROR, with u the exact
       wave at the cell: the gap is within the reference's own error in u;
    2. the computed cell matches |S_m - u|/|u| with S_m summed from the
       Taylor oracle's coefficients at ORACLE_DIGITS, to ORACLE_CELL_TOLERANCE.
    Every other cell that misses the rule is rejected, with the reason.
    """
    wave = deng_wave(case_preset(comparison.case_id))
    floor, rejected = [], []
    with working_dps(ORACLE_DIGITS):
        bound = to_mpf(wave.problem.gamma * Fraction(1, 2)) * REFERENCE_U_ERROR
        for check in comparison.failures():
            u = wave.eval_at(check.x, check.t, ORACLE_DIGITS)
            gap = abs(check.computed - check.reference) * abs(u)
            coeffs = wave.time_taylor_coefficients(check.x, check.m - 1, ORACLE_DIGITS)
            t = mpf(check.t.numerator) / check.t.denominator
            partial = sum(c * t**k for k, c in enumerate(coeffs))
            oracle_gap = abs(check.computed - abs(partial - u) / abs(u))
            if gap > bound:
                rejected.append(
                    f"{check.describe()}: gap in u {mpmath.nstr(gap, 3)} "
                    f"exceeds the reference floor {mpmath.nstr(bound, 3)}"
                )
            elif oracle_gap > ORACLE_CELL_TOLERANCE:
                rejected.append(
                    f"{check.describe()}: off the {ORACLE_DIGITS}-digit oracle "
                    f"by {mpmath.nstr(oracle_gap, 3)}"
                )
            else:
                floor.append(check)
    return floor, rejected


def check_reference_table(number: int, cid: int) -> None:
    start = time.monotonic()
    comparison = reference_run(cid)
    elapsed = time.monotonic() - start
    n_ok = sum(c.ok for c in comparison.checks)
    floor, rejected = floor_verdict(comparison)
    announce(
        number,
        f"reference table, case {cid}",
        elapsed < 10 and not rejected and len(floor) == FLOOR_CELLS[cid],
        f"{n_ok}/36 cells within stated tolerance, {len(floor)} on the "
        f"reference floor, {len(rejected)} rejected in {elapsed:.1f}s",
    )
    assert elapsed < 10
    assert not rejected, (
        f"{len(rejected)} cells miss both the stated tolerance and the "
        f"reference floor:\n" + "\n".join(rejected)
    )
    assert len(floor) == FLOOR_CELLS[cid], (
        f"{len(floor)} cells on the reference floor, documented "
        f"{FLOOR_CELLS[cid]}:\n" + "\n".join(c.describe() for c in floor)
    )


class TestCriterion1:
    def test_reference_table_case1(self):
        check_reference_table(1, 1)


class TestCriterion2:
    @pytest.mark.parametrize("cid", [2, 3])
    def test_reference_tables_cases_2_3(self, cid):
        check_reference_table(2, cid)

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_floor_verdict_rejects_a_wrong_v5(self, expansions, cid):
        # v_5 scaled by 1.01 moves only S6; the floor must not absorb it
        _, rejected = floor_verdict(reference_run(cid, scaled_last_term(expansions[cid])))
        assert any("exceeds the reference floor" in line for line in rejected)
        assert all(" S6 " in line for line in rejected)


class TestCriterion3:
    def test_max_error_claims(self, expansions):
        results = []
        with working_dps(PRECISION):
            for cid in (1, 2, 3):
                wave = deng_wave(case_preset(cid))
                table = build_error_table(
                    expansions[cid], wave, orders=(6,), ts=GRID_T, xs=GRID_X,
                    digits=PRECISION, case_id=cid,
                )
                percent = 100 * table.max_cell(6)
                claim = mpf(MAX_S6_PERCENT_CLAIM[cid])
                results.append((cid, percent, claim, percent < claim))
        passed = all(ok for _, _, _, ok in results)
        detail = "; ".join(
            f"case {cid}: {mpmath.nstr(p, 8)}% < {mpmath.nstr(c, 8)}%"
            for cid, p, c, _ in results
        )
        announce(3, "six-term max-error claims", passed, detail)
        for cid, percent, claim, ok in results:
            assert ok, f"case {cid}: {percent} not below {claim}"


class TestCriterion4:
    def test_reference_symbolic_terms(self, expansions):
        mismatches = []
        for cid in (1, 2, 3):
            expected = reference_terms(cid)
            for k in (1, 2, 3):
                expansion = expansions[cid]
                if (not expansion.terms[k].endswith(t_power(k))
                        or not matches_reference(expansion, k, expected[k - 1])):
                    mismatches.append((cid, k))
        announce(
            4,
            "closed-form terms v1..v3, exact identity in Q(sqrt(d))",
            not mismatches,
            "all nine terms match" if not mismatches else f"mismatches: {mismatches}",
        )
        assert not mismatches


class TestCriterion5:
    def test_taylor_match(self, expansions_k6):
        xs = (-2, -1, 0, 1, 2, 3)
        tolerance = mpf("1e-25")
        worst_by_case = {}
        for cid in (1, 2, 3):
            worst_by_case[cid] = max_taylor_deviation(expansions_k6[cid], xs, digits=PRECISION)
        passed = all(w <= tolerance for w in worst_by_case.values())
        detail = "; ".join(
            f"case {cid}: {mpmath.nstr(w, 3)}" for cid, w in worst_by_case.items()
        )
        announce(5, "t^k coefficients vs Taylor oracle (k <= 6)", passed, detail)
        for cid, worst in worst_by_case.items():
            assert worst <= tolerance, f"case {cid}: {worst}"


class TestCriterion6:
    def test_wave_validity(self):
        # exact parameter equality against the closed-form constants
        expected = {
            1: (1, Fraction(1, 2), quad(0, Fraction(1, 4), 2), quad(0, Fraction(1, 2), 2)),
            2: (-1, Fraction(1, 2), quad(Fraction(1, 4)), quad(Fraction(-3, 2))),
            3: (-1, Fraction(3, 2), quad(Fraction(-3, 4), Fraction(3, 4), 3),
                quad(Fraction(-5, 2), Fraction(1, 2), 3)),
        }
        params_ok = True
        worst_residual = mpf(0)
        for cid, (sign, amplitude, kappa, speed) in expected.items():
            problem = case_preset(cid)
            wave = deng_wave(problem)
            params_ok = params_ok and (
                wave.problem.sign == sign
                and wave.problem.gamma * Fraction(1, 2) == QuadraticNumber.coerce(amplitude)
                and wave.problem.kappa == kappa
                and wave.problem.speed == speed
            )
            func = wave.eval_at
            for x in GRID_X:
                for t in GRID_T:
                    worst_residual = max(
                        worst_residual,
                        pde_residual(func, problem, x, t, digits=PRECISION),
                    )
        passed = params_ok and worst_residual < mpf("1e-15")
        announce(
            6,
            "exact-wave validity",
            passed,
            f"exact parameters: {'ok' if params_ok else 'MISMATCH'}, "
            f"max grid residual {mpmath.nstr(worst_residual, 3)}",
        )
        assert params_ok
        assert worst_residual < mpf("1e-15")


class TestCriterion7:
    def test_monotone_convergence(self, expansions):
        violations = []
        for cid in (1, 2, 3):
            wave = deng_wave(case_preset(cid))
            table = build_error_table(
                expansions[cid], wave, orders=DISPLAY_ORDERS[cid],
                ts=GRID_T, xs=GRID_X, digits=PRECISION, case_id=cid,
            )
            for t in GRID_T:
                for x in GRID_X:
                    series = [table.cell(t, m, x) for m in DISPLAY_ORDERS[cid]]
                    if not all(a >= b for a, b in zip(series, series[1:])):
                        violations.append((cid, t, x))
        announce(
            7,
            "monotone error decay at every grid point",
            not violations,
            "all 27 grid points monotone" if not violations else str(violations),
        )
        assert not violations


class TestCriterion8:
    def test_randomized_property_suite(self):
        rng = random.Random(20260809)
        checks = 0
        start = time.monotonic()

        # ring axioms on the sigma-polynomial add, scale and product of the
        # series engine: 60 triples x 5, each triple on one line of Q(sqrt(3))
        for _ in range(60):
            line = random_quad(rng, 3)
            a, b, c = (random_poly(rng, 2, d=3, line=line) for _ in range(3))
            f = _lattice([random_quad(rng, 3)], 3)
            assert add(a, b, 3) == add(b, a, 3)
            assert mul(a, b, 3) == mul(b, a, 3)
            assert add(add(a, b, 3), c, 3) == add(a, add(b, c, 3), 3)
            assert mul(mul(a, b, 3), c, 3) == mul(a, mul(b, c, 3), 3)
            assert (mul(mul(f, a, 3), add(b, c, 3), 3)
                    == _sum_products(3, [(f, mul(a, b, 3)), (f, mul(a, c, 3))]))
            checks += 5

        # field axioms on scalar coefficients: 50 triples x 4
        one = quad(1)
        for _ in range(50):
            qa, qb, qc = (random_quad(rng, 3) for _ in range(3))
            assert qa * (qb + qc) == qa * qb + qa * qc
            assert (qa + qb) + qc == qa + (qb + qc)
            assert qa * qb == qb * qa
            if not qa.is_zero():
                assert qa * qa.inverse() == one
            checks += 4

        # the value of a product is the product of the values: 100 pairs x 3,
        # on both branches of fronts with case 3's kappa
        kappa = quad(Fraction(-3, 4), Fraction(3, 4), 3)
        fronts = {-1: case_preset(3), 1: BHProblem(alpha=2, beta=1, gamma=3, branch="upper")}
        assert all(front.kappa == kappa for front in fronts.values())
        with working_dps(PRECISION):
            for i in range(100):
                front = fronts[1 if i % 2 else -1]
                a, b = (random_poly(rng, 3, d=3) for _ in range(2))
                product = mul(a, b, 3)
                for _ in range(3):
                    x = Fraction(rng.randint(-300, 300), 100)
                    lhs = sigma_value(product, front, x, PRECISION)
                    rhs = sigma_value(a, front, x, PRECISION) * sigma_value(b, front, x, PRECISION)
                    assert mpmath.almosteq(lhs, rhs, rel_eps=mpf("1e-25"), abs_eps=mpf("1e-25"))
                    checks += 1

        # rate*delta(P) vs 5-point finite difference, step 1e-6, on both branches
        with working_dps(40):
            h = mpf("1e-6")
            for i in range(60):
                sign = 1 if i % 2 else -1
                p = random_poly(rng, 3, d=3)
                der = mul(_lattice([kappa * (2 * sign)], 3), _delta(p), 3)

                def f(x, digits):
                    return sigma_value(p, fronts[sign], x, digits)

                for _ in range(5):
                    x = mpf(rng.randint(-300, 300)) / 100
                    fd = (-f(x + 2 * h, 40) + 8 * f(x + h, 40)
                          - 8 * f(x - h, 40) + f(x - 2 * h, 40)) / (12 * h)
                    exact = sigma_value(der, fronts[sign], x, 40)
                    scale = max(mpf(1), abs(f(x, 40)), abs(exact))
                    assert abs(fd - exact) <= mpf("1e-8") * scale
                    checks += 1

        elapsed = time.monotonic() - start
        passed = checks >= 1000 and elapsed < 60
        announce(
            8,
            "randomized algebra property suite",
            passed,
            f"{checks} checks in {elapsed:.1f}s",
        )
        assert checks >= 1000
        assert elapsed < 60


INVALID_CONFIGS = [
    ("alpha = 1/0\nbeta = 1\ngamma = 1", ConfigNumberError),
    ("case = case1\nprecision = ten", ConfigNumberError),
    ("case = case1\nn of orders", ConfigSyntaxError),
    ("case = case1\nflavor = spicy", ConfigSyntaxError),
    ("case = case1\nbranch = lower", ConfigConflictError),
    ("case = case1\ncase = case2", ConfigConflictError),
    ("case = case4", ConfigSyntaxError),
    ("alpha = 1\nbeta = 1", ConfigConflictError),
    ("case = case2\nreport_orders = 1, 99", ConfigConflictError),
    ("case = case1\ngrid_t = 0.1, oops", ConfigNumberError),
]


class TestCriterion9:
    def test_parser_round_trips_and_error_classes(self, tmp_path):
        # the three presets and 20 randomized valid configs round-trip
        round_trips = 0
        for cid in (1, 2, 3):
            cfg = RunConfig(case_preset(cid))
            cfg.report_orders = default_report_orders(cid, cfg.orders)
            assert parse_config(render_config(cfg)) == cfg
            round_trips += 1
        rng = random.Random(90)
        for _ in range(20):
            cfg = random_config(rng)
            assert parse_config(render_config(cfg)) == cfg
            round_trips += 1

        # ten invalid configs: specific error class, and exit code 2 via CLI
        class_ok = exit_ok = 0
        for index, (text, expected) in enumerate(INVALID_CONFIGS):
            with pytest.raises(ConfigError) as caught:
                parse_config(text)
            assert isinstance(caught.value, expected), (
                f"config {index}: expected {expected.__name__}, "
                f"got {type(caught.value).__name__}"
            )
            class_ok += 1
            path = tmp_path / f"bad_{index}.conf"
            path.write_text(text)
            result = run_cli(["run", "--config", str(path)])
            assert result.exit_code == 2, f"config {index}: exit {result.exit_code}"
            exit_ok += 1

        announce(
            9,
            "config parser round-trips and diagnostics",
            True,
            f"{round_trips} round-trips, {class_ok} error classes, "
            f"{exit_ok} exit-code checks",
        )
