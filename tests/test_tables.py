import io
from fractions import Fraction

import pytest
from mpmath import mpf

from bhhpm import case_preset, deng_wave, working_dps
from bhhpm.cli import _write
from bhhpm.config import ConfigError
from bhhpm.errors import ContractViolation
from bhhpm.golden import DISPLAY_ORDERS, GRID_T, GRID_X, REFERENCE_ORDERS, REFERENCE_TABLES
from bhhpm.tables import (
    ErrorTable,
    build_error_table,
    convergence_summary,
    emit_table,
    fraction_str,
    golden_compare,
    render_csv,
    render_markdown,
    render_plot_data,
    sci10,
)


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
        assert sci10(None) == "undefined"
        assert sci10(mpf(0)) == "0"

    def test_fraction_str(self):
        assert fraction_str(Fraction(1, 10)) == "0.1"
        assert fraction_str(Fraction(2, 5)) == "0.4"
        assert fraction_str(Fraction(3)) == "3"
        assert fraction_str(Fraction(-3, 2)) == "-1.5"
        assert fraction_str(Fraction(1, 3)) == "1/3"


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

    def test_max_cell(self, tables):
        table = tables[1]
        assert table.max_cell() == table.cell(Fraction(2, 5), 1, Fraction(1))
        assert table.max_cell(6) < table.max_cell(1)


class TestGoldenCompare:
    def reference_as_table(self, cid) -> ErrorTable:
        cells = {
            key: mpf(value) for key, value in REFERENCE_TABLES[cid].items()
        }
        return ErrorTable(
            orders=REFERENCE_ORDERS, ts=GRID_T, xs=GRID_X, cells=cells, case_id=cid
        )

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_reference_data_compares_clean(self, cid):
        comparison = golden_compare(self.reference_as_table(cid), cid)
        assert comparison.passed
        assert len(comparison.checks) == 36

    def test_perturbed_cell_detected_and_named(self):
        table = self.reference_as_table(2)
        key = (Fraction(3, 10), 3, Fraction(2))
        table.cells[key] = table.cells[key] * mpf("1.01")
        comparison = golden_compare(table, 2)
        assert not comparison.passed
        failures = comparison.failures()
        assert len(failures) == 1
        worst = comparison.worst
        assert (worst.t, worst.m, worst.x) == key
        assert "t=0.3 S3 x=2" in worst.describe()

    def test_magnitude_rule_for_tiny_cells(self):
        table = self.reference_as_table(1)
        key = (Fraction(1, 10), 6, Fraction(1))  # reference 9.74e-12 < 1e-10
        table.cells[key] = table.cells[key] * 5       # within a factor of 10
        assert golden_compare(table, 1).passed
        table.cells[key] = table.cells[key] * 4       # now a factor of 20 off
        assert not golden_compare(table, 1).passed

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
        assert lines[0] == "t,m,x,percent_relative_error"
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
        assert render_csv(table) == "t,m,x,percent_relative_error\n"

    def test_undefined_cell_rendering(self):
        table = ErrorTable(
            orders=(1,), ts=(Fraction(0),), xs=(Fraction(1),),
            cells={(Fraction(0), 1, Fraction(1)): None},
        )
        assert "undefined" in render_csv(table)

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
        summary = convergence_summary(tables[1])
        assert [m for m, _ in summary] == list(tables[1].orders)
        values = [v for _, v in summary]
        assert all(a >= b for a, b in zip(values, values[1:]))
        text = render_plot_data(tables[1])
        assert text.splitlines()[0] == "m,max_percent_relative_error"
        assert len(text.strip().splitlines()) == 1 + len(tables[1].orders)
