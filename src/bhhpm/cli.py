"""Command-line interface.

Subcommands: ``run`` (config or preset -> error table), ``golden`` (all
presets against the built-in reference tables), ``terms`` (print the series
terms symbolically), ``taylor-check`` (series coefficients against the
exact wave's time-Taylor coefficients).

Exit codes: 0 success/PASS, 1 reference comparison FAIL, 2 configuration
error, 3 internal contract violation.  ``HPM_PRECISION`` overrides the
default precision (30 significant digits) when set.
"""

from __future__ import annotations

import functools
import os
import sys

import click
import mpmath

from . import golden as golden_data
from . import tables
from .config import (
    ConfigError,
    RunConfig,
    default_report_orders,
    parse_config,
)
from .errors import ContractViolation, ProblemDomainError, UnsupportedProblemError
from .hpm import max_taylor_deviation, run_hpm
from .problem import case_preset
from .scalars import DEFAULT_DIGITS, working_dps
from .tables import build_error_table, golden_compare, sci10
from .waves import deng_wave

EXIT_GOLDEN_FAIL = 1
EXIT_CONFIG = 2
EXIT_CONTRACT = 3

TAYLOR_SAMPLE_X = (-2, -1, 0, 1, 3)
TAYLOR_TOLERANCE = "1e-25"


def default_precision() -> int:
    env = os.environ.get("HPM_PRECISION")
    if env is None:
        return DEFAULT_DIGITS
    try:
        value = int(env)
    except ValueError:
        raise ConfigError(f"HPM_PRECISION must be an integer, got {env!r}")
    if value < DEFAULT_DIGITS:
        raise ConfigError(f"HPM_PRECISION must be at least {DEFAULT_DIGITS}")
    return value


def trap_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except (ConfigError, ProblemDomainError, UnsupportedProblemError) as exc:
            click.echo(f"configuration error: {exc}", err=True)
            sys.exit(EXIT_CONFIG)
        except ContractViolation as exc:
            click.echo(f"internal contract violation: {exc}", err=True)
            sys.exit(EXIT_CONTRACT)

    return wrapper


@click.group()
def main() -> None:
    """Exact perturbation-series solver for the generalized Burgers-Huxley
    equation, with reference-table verification."""


@main.command("run")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False), help="Config file (key = value lines).")
@click.option("--case", type=click.IntRange(1, 3), help="Built-in benchmark case instead of a config file.")
@click.option("--orders", type=click.IntRange(min=1), help="Highest series order K.")
@click.option("--precision", type=click.IntRange(min=DEFAULT_DIGITS), help="Significant decimal digits.")
@click.option("--format", "fmt", type=click.Choice(["csv", "md"]), help="Table output format.")
@click.option("--out", type=click.Path(dir_okay=False), help="Output path (stdout when omitted).")
@trap_errors
def run_command(config_path, case, orders, precision, fmt, out) -> None:
    """Compute the series and report relative errors on the grid."""
    if config_path and case:
        raise ConfigError("--config and --case are mutually exclusive")
    if config_path:
        with open(config_path, "r", encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    elif case:
        cfg = RunConfig(case=case, precision=default_precision())
        cfg.report_orders = default_report_orders(case, cfg.orders)
    else:
        raise ConfigError("one of --config or --case is required")
    if orders is not None:
        cfg.orders = orders
        cfg.report_orders = default_report_orders(cfg.case, orders)
    if precision is not None:
        cfg.precision = precision
    if fmt is not None:
        cfg.format = "markdown" if fmt == "md" else "csv"
    if out is not None:
        cfg.out = out
    bad = [m for m in cfg.report_orders if not 1 <= m <= cfg.orders + 1]
    if bad:
        raise ConfigError(f"report orders {bad} exceed orders+1 = {cfg.orders + 1}")

    problem = cfg.problem()
    expansion = run_hpm(problem, cfg.orders)
    wave = deng_wave(problem)
    table = tables.relative_error_table(expansion, wave, cfg)

    plot_text = tables.render_plot_data(table)
    if cfg.out:
        tables.emit_table(table, cfg.format, cfg.out)
        plot_path = cfg.out + ".plot.csv"
        with open(plot_path, "w", encoding="utf-8") as handle:
            handle.write(plot_text)
        click.echo(f"table written to {cfg.out}; convergence data to {plot_path}")
    else:
        tables.emit_table(table, cfg.format, sys.stdout)
        click.echo("")
        click.echo(plot_text, nl=False)
    with working_dps(cfg.precision):
        worst = table.max_cell()
        click.echo(f"max relative error over grid: {sci10(worst)} ({sci10(100 * worst)} %)")


@main.command("golden")
@click.option("--case", type=click.IntRange(1, 3), help="Check a single case (default: all three).")
@click.option("--orders", type=click.IntRange(min=1), default=5, show_default=True, help="Series order K.")
@click.option("--precision", type=click.IntRange(min=DEFAULT_DIGITS), help="Significant decimal digits.")
@click.option("--verbose", is_flag=True, help="Print every cell comparison.")
@trap_errors
def golden_command(case, orders, precision, verbose) -> None:
    """Compare all presets against the built-in reference tables."""
    digits = precision if precision is not None else default_precision()
    cases = [case] if case else [1, 2, 3]
    needed = max(max(golden_data.REFERENCE_ORDERS[c]) for c in cases) - 1
    if orders < needed:
        raise ConfigError(f"golden needs --orders >= {needed} (tables up to S{needed + 1}); got {orders}")
    all_passed = True
    for case_id in cases:
        problem = case_preset(case_id)
        expansion = run_hpm(problem, orders)
        wave = deng_wave(problem)
        table = build_error_table(
            expansion,
            wave,
            orders=golden_data.REFERENCE_ORDERS[case_id],
            ts=golden_data.GRID_T,
            xs=golden_data.GRID_X,
            digits=digits,
            case_id=case_id,
        )
        comparison = golden_compare(table, case_id)
        click.echo(comparison.summary())
        failures = comparison.failures()
        if failures and verbose:
            for check in comparison.checks:
                click.echo("  " + check.describe())
        elif failures:
            for check in failures:
                click.echo("  " + check.describe())
        all_passed = all_passed and comparison.passed
    if not all_passed:
        sys.exit(EXIT_GOLDEN_FAIL)


@main.command("terms")
@click.option("--case", type=click.IntRange(1, 3), required=True, help="Benchmark case.")
@click.option("--orders", type=click.IntRange(min=1), default=3, show_default=True, help="Series order K.")
@trap_errors
def terms_command(case, orders) -> None:
    """Print the series terms v_0..v_K in closed form."""
    problem = case_preset(case)
    expansion = run_hpm(problem, orders)
    click.echo(f"E = exp(kappa*x), kappa = {problem.kappa}")
    for k, term in enumerate(expansion.terms):
        click.echo(f"v_{k} = {term}")


@main.command("taylor-check")
@click.option("--case", type=click.IntRange(1, 3), help="Check a single case (default: all three).")
@click.option("--orders", type=click.IntRange(min=1), default=6, show_default=True, help="Highest order checked.")
@click.option("--precision", type=click.IntRange(min=DEFAULT_DIGITS), help="Significant decimal digits.")
@trap_errors
def taylor_check_command(case, orders, precision) -> None:
    """Verify t^k series coefficients against the exact wave's Taylor data."""
    digits = precision if precision is not None else default_precision()
    cases = [case] if case else [1, 2, 3]
    tolerance = mpmath.mpf(TAYLOR_TOLERANCE)
    failed = False
    for case_id in cases:
        problem = case_preset(case_id)
        expansion = run_hpm(problem, orders)
        wave = deng_wave(problem)
        worst = max_taylor_deviation(expansion, wave, TAYLOR_SAMPLE_X, digits=digits)
        ok = worst <= tolerance
        click.echo(
            f"case {case_id}: max coefficient deviation {sci10(worst)} "
            f"({'PASS' if ok else 'FAIL'} at {TAYLOR_TOLERANCE})"
        )
        failed = failed or not ok
    if failed:
        sys.exit(EXIT_GOLDEN_FAIL)


if __name__ == "__main__":
    main()
