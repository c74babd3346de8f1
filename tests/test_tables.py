import io
import random
from fractions import Fraction

import pytest
from mpmath import mpf
from mpmath.libmp import fzero

from bhhpm import BHProblem, case_preset, deng_wave, run_hpm, working_dps
from bhhpm.cli import _write
from bhhpm.config import ConfigError
from bhhpm.errors import ContractViolation
from bhhpm.golden import DISPLAY_ORDERS, GRID_T, GRID_X, REFERENCE_ORDERS, REFERENCE_TABLES
from bhhpm.tables import (
    SMALL_CELL,
    CellCheck,
    ErrorTable,
    build_error_table,
    emit_table,
    fraction_str,
    golden_compare,
    render_csv,
    render_markdown,
    render_plot_data,
    sci10,
)

from conftest import FRONTS, NEGATIVE_FRONT, plain_profiles_at, plain_to_mpf, plain_wave_base


@pytest.fixture(scope="module")
def tables(expansions):
    out = {}
    for cid in (1, 2, 3):
        wave = deng_wave(case_preset(cid))
        out[cid] = build_error_table(
            expansions[cid],
            wave,
            orders=tuple(sorted(set(REFERENCE_ORDERS) | set(DISPLAY_ORDERS[cid]))),
            ts=GRID_T,
            xs=GRID_X,
            digits=30,
            case_id=cid,
        )
    return out


class TestFormatting:
    def test_sci10(self):
        assert sci10(mpf("0.01693168743")) == "1.693168743e-2"
        assert sci10(mpf("123.456")) == "1.234560000e2"
        assert sci10(mpf("9.7448e-12")) == "9.744800000e-12"
        assert sci10(mpf(0)) == "0"
        assert sci10(mpf("1.5")) == "1.500000000e0"
        assert sci10(mpf("-0.0025")) == "-2.500000000e-3"
        assert sci10(mpf("1.2345678e15")) == "1.234567800e15"

    def test_fraction_str(self):
        assert fraction_str(Fraction(1, 10)) == "0.1"
        assert fraction_str(Fraction(2, 5)) == "0.4"
        assert fraction_str(Fraction(3)) == "3"
        assert fraction_str(Fraction(-3, 2)) == "-1.5"
        assert fraction_str(Fraction(1, 3)) == "1/3"
        assert fraction_str(Fraction(-1, 20)) == "-0.05"
        assert fraction_str(Fraction(1, 1024)) == "0.0009765625"
        assert fraction_str(Fraction(7, 3)) == "7/3"
        assert fraction_str(Fraction(0)) == "0"


class TestErrorTable:
    def test_case1_first_order_cell(self, tables):
        cell = tables[1].cell(Fraction(1, 10), 1, Fraction(1))
        with working_dps(30):
            reference = mpf("0.01693168743")
            assert abs(cell - reference) / reference < mpf("1e-9")

    def test_cells_nonnegative_and_defined(self, tables):
        for cid in (1, 2, 3):
            for _, _, row in tables[cid].rows():
                for value in row:
                    assert value is not None and value >= 0

    def test_zero_time_row_vanishes(self, expansions):
        table = build_error_table(
            expansions[1],
            deng_wave(case_preset(1)),
            orders=(1, 3, 6),
            ts=(Fraction(0),),
            xs=GRID_X,
            digits=30,
        )
        for _, _, row in table.rows():
            for value in row:
                # both routes compute the same number through different
                # formulas; agreement is at the rounding floor
                assert value < mpf("1e-35")

    def test_monotone_in_reported_order(self, tables):
        for cid in (1, 2, 3):
            table = tables[cid]
            for t in GRID_T:
                for x in GRID_X:
                    series = [table.cell(t, m, x) for m in table.orders]
                    assert all(a >= b for a, b in zip(series, series[1:]))

    def test_needs_enough_terms(self, expansions):
        with pytest.raises(ContractViolation):
            build_error_table(
                expansions[1],
                deng_wave(case_preset(1)),
                orders=(9,),
                ts=GRID_T,
                xs=GRID_X,
            )

    def test_wave_of_another_problem_rejected(self, expansions):
        with pytest.raises(ContractViolation, match="wave"):
            build_error_table(expansions[3], deng_wave(case_preset(1)),
                              orders=(6,), ts=GRID_T, xs=GRID_X)

    def test_wave_of_an_equal_problem_accepted(self, expansions, tables):
        problem = expansions[3].problem
        equal = BHProblem(problem.alpha, problem.beta, problem.gamma, problem.n,
                          problem.branch, problem.x0)
        assert equal == problem and equal is not problem
        table = build_error_table(expansions[3], deng_wave(equal), orders=tables[3].orders,
                                  ts=GRID_T, xs=GRID_X, digits=30, case_id=3)
        assert table.cells == tables[3].cells

    def test_max_cell(self, tables):
        table = tables[1]
        assert table.max_cell() == table.cell(Fraction(2, 5), 1, Fraction(1))
        assert table.max_cell(6) < table.max_cell(1)


def plain_cells(expansion, wave, orders, ts, xs, digits=30):
    """Every cell by the plain mpf-operator loop: c_k(x) per x and u per (x, t)
    from the plain references, then per order S_m = sum_k c_k*time**k and
    abs(S_m - u)/abs(u)."""
    cells = {}
    with working_dps(digits):
        for x in xs:
            profiles = plain_profiles_at(expansion, x, digits)
            for t in ts:
                exact = plain_wave_base(wave.problem, x, t, digits)
                time = plain_to_mpf(t)
                for m in orders:
                    total = mpf(0)
                    for k, c in enumerate(profiles[:m]):
                        total += c * time**k
                    cells[(t, m, x)] = abs(total - exact) / abs(exact)
    return cells


class TestCellBits:
    """``build_error_table`` runs on raw libmp values and hoists work out of
    the cell loop (each t, its powers and speed*t per table, x per point, the
    |u| per (x, t)); every cell keeps the plain loop's bits."""

    @staticmethod
    def grid(seed: int) -> tuple[list[Fraction], list[Fraction]]:
        rng = random.Random(seed)
        xs = [Fraction(-24), Fraction(24), Fraction(5000), Fraction(-5000)]
        xs += [Fraction(rng.randint(-2400, 2400), 100) for _ in range(8)]
        return xs, [Fraction(rng.randint(1, 400), 1000) for _ in range(3)]

    @pytest.mark.parametrize("front", [*FRONTS, "negative"])
    def test_cells_equal_plain_loop(self, front, expansions):
        problem = {**FRONTS, "negative": NEGATIVE_FRONT}[front]
        expansion = expansions[int(front[-1])] if front.startswith("case") else run_hpm(problem, 4)
        xs, ts = self.grid(13)
        orders = range(1, expansion.order + 2)
        wave = deng_wave(problem)
        for digits in (30, 45):
            table = build_error_table(expansion, wave, orders=orders, ts=ts, xs=xs, digits=digits)
            plain = plain_cells(expansion, wave, orders, ts, xs, digits)
            got = {key: table.cell(*key)._mpf_ for key in plain}
            assert got == {key: value._mpf_ for key, value in plain.items()}, digits

    def test_sum_keeps_the_sign_of_its_larger_addend(self):
        # at x = -303 (sigma -> 1) u and c_0 are -3/2 to within 2^-600, and c_1*t lies
        # some 600 bits below them, past prec + 4: S_2 keeps it only as a sticky bit and
        # rounds to u, so the cell is 0 only if that sum keeps the sign of c_0
        t, x = Fraction(43, 1000), Fraction(-303)
        table = build_error_table(run_hpm(NEGATIVE_FRONT, 2), deng_wave(NEGATIVE_FRONT),
                                  orders=[2], ts=[t], xs=[x], digits=30)
        assert table.cell(t, 2, x)._mpf_ == fzero

    @pytest.mark.parametrize("front", ["case3", "lower-x0"])
    def test_points_leave_no_state_behind(self, front, expansions):
        # a table over all its x at once is, cell for cell, the tables of each x alone
        problem = FRONTS[front]
        expansion = expansions[3] if front == "case3" else run_hpm(problem, 4)
        xs, ts = self.grid(29)
        orders = range(1, expansion.order + 2)
        wave = deng_wave(problem)
        whole = build_error_table(expansion, wave, orders=orders, ts=ts, xs=xs)
        for x in xs:
            alone = build_error_table(expansion, wave, orders=orders, ts=ts, xs=[x])
            for t in ts:
                for m in orders:
                    assert whole.cell(t, m, x)._mpf_ == alone.cell(t, m, x)._mpf_, (t, m, x)


class TestGoldenCompare:
    def reference_as_table(self, cid) -> ErrorTable:
        reference = REFERENCE_TABLES[cid]
        cells = [[[mpf(reference[(t, m, x)]) for x in GRID_X] for m in REFERENCE_ORDERS]
                 for t in GRID_T]
        return ErrorTable(
            orders=REFERENCE_ORDERS, ts=GRID_T, xs=GRID_X, cells=cells, case_id=cid
        )

    @staticmethod
    def position(t, m, x) -> tuple[int, int, int]:
        """The indices i, j, k of a reference cell in ``cells[i][j][k]``."""
        return GRID_T.index(t), REFERENCE_ORDERS.index(m), GRID_X.index(x)

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_reference_data_compares_clean(self, cid):
        comparison = golden_compare(self.reference_as_table(cid), cid)
        assert comparison.passed
        assert len(comparison.checks) == 36

    def test_perturbed_cell_detected_and_named(self):
        table = self.reference_as_table(2)
        key = (Fraction(3, 10), 3, Fraction(2))
        i, j, k = self.position(*key)
        table.cells[i][j][k] *= mpf("1.01")
        comparison = golden_compare(table, 2)
        assert not comparison.passed
        failures = comparison.failures()
        assert len(failures) == 1
        worst = comparison.worst
        assert (worst.t, worst.m, worst.x) == key
        assert "t=0.3 S3 x=2" in worst.describe()

    def test_magnitude_rule_for_tiny_cells(self):
        table = self.reference_as_table(1)
        i, j, k = self.position(Fraction(1, 10), 6, Fraction(1))  # reference 9.74e-12 < 1e-10
        table.cells[i][j][k] *= 5       # within a factor of 10
        assert golden_compare(table, 1).passed
        table.cells[i][j][k] *= 4       # now a factor of 20 off
        assert not golden_compare(table, 1).passed

    @pytest.mark.parametrize("factor,ok", [("0.09", False), ("0.11", True), ("9", True),
                                           ("11", False)])
    def test_magnitude_band_is_a_factor_of_ten(self, factor, ok):
        # a cell below SMALL_CELL passes within 0.1..10 times its reference, no wider
        reference = mpf("2.5e-12")
        assert reference < SMALL_CELL
        check = CellCheck(Fraction(1, 10), 6, Fraction(1), reference * mpf(factor), reference)
        assert (check.rule, check.ok) == ("magnitude", ok)

    def test_grid_mismatch_rejected(self, expansions):
        table = build_error_table(
            expansions[1],
            deng_wave(case_preset(1)),
            orders=REFERENCE_ORDERS,
            ts=(Fraction(1, 10),),
            xs=GRID_X,
        )
        with pytest.raises(ContractViolation):
            golden_compare(table, 1)

    def test_missing_orders_rejected(self, expansions):
        table = build_error_table(
            expansions[1],
            deng_wave(case_preset(1)),
            orders=(1, 2),
            ts=GRID_T,
            xs=GRID_X,
        )
        with pytest.raises(ContractViolation):
            golden_compare(table, 1)


class TestEmission:
    def test_csv_contains_reference_line(self, tables):
        text = render_csv(tables[1])
        lines = text.splitlines()
        assert lines[0] == "t,m,x,relative_error"
        assert any(line.startswith("0.1,1,1,1.693168743e-2") for line in lines)

    def test_markdown_row_count(self, expansions):
        # one data row per (t, reported order): 3 * 4 = 12
        table = build_error_table(
            expansions[2],
            deng_wave(case_preset(2)),
            orders=DISPLAY_ORDERS[2],
            ts=GRID_T,
            xs=GRID_X,
        )
        lines = render_markdown(table).strip().splitlines()
        assert len(lines) == 2 + 12
        assert lines[0].startswith("| t | terms | x = 1 |")

    def test_empty_grid_gives_header_only(self, expansions):
        table = build_error_table(
            expansions[1], deng_wave(case_preset(1)), orders=(), ts=(), xs=()
        )
        assert render_csv(table) == "t,m,x,relative_error\n"

    def test_emit_to_stream_and_file(self, tables, tmp_path):
        stream = io.StringIO()
        emit_table(tables[1], "csv", stream)
        assert stream.getvalue().startswith("t,m,x,")
        path = tmp_path / "out.md"
        _write(str(path), lambda handle: emit_table(tables[1], "markdown", handle))
        assert path.read_text().startswith("| t | terms |")

    def test_emit_bad_path_reports(self, tables):
        with pytest.raises(ConfigError, match="no/such/dir"):
            _write("no/such/dir/out.csv", lambda handle: emit_table(tables[1], "csv", handle))

    def test_emit_rejects_unknown_format(self, tables):
        # the config resolves the md alias; emit_table takes the canonical name
        for fmt in ("md", "xml"):
            with pytest.raises(ValueError, match="unknown table format"):
                emit_table(tables[1], fmt, io.StringIO())

    def test_plot_data(self, tables):
        header, *rows = render_plot_data(tables[1]).splitlines()
        assert header == "m,max_relative_error"
        summary = [row.split(",") for row in rows]
        assert [int(m) for m, _ in summary] == list(tables[1].orders)
        values = [float(v) for _, v in summary]
        assert all(a >= b for a, b in zip(values, values[1:]))
