"""Command-line interface.

Subcommands: ``run`` (config or preset -> error table), ``golden`` (all
presets against the built-in reference tables), ``terms`` (print the series
terms symbolically), ``taylor-check`` (series coefficients against the
exact wave's time-Taylor coefficients).

Exit codes: 0 success/PASS, 1 reference comparison FAIL or stdout closed by
its reader (no traceback), 2 configuration or usage error (one line on
stderr), 3 internal contract violation.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

import mpmath

from . import golden as golden_data
from . import tables
from .config import PARSERS, ConfigError, parse_config
from .errors import BHError, ContractViolation
from .hpm import max_taylor_deviation, run_hpm
from .problem import case_preset
from .scalars import DEFAULT_DIGITS, to_mpf, working_dps
from .tables import build_error_table, golden_compare, sci10
from .waves import deng_wave

EXIT_GOLDEN_FAIL = 1
EXIT_STDOUT_CLOSED = 1
EXIT_CONFIG = 2
EXIT_CONTRACT = 3

TAYLOR_SAMPLE_X = (-2, -1, 0, 1, 3)
TAYLOR_TOLERANCE = "1e-25"


def _write(path: str, write) -> None:
    """Call ``write`` on ``path`` opened for text; a path that cannot be
    written is a configuration error."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            write(handle)
    except OSError as exc:
        raise ConfigError(f"cannot write table to {path!r}: {exc}") from None


def run_command(args) -> int:
    """Compute the series and report relative errors on the grid."""
    text = ""
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None
    cfg = parse_config(text, case=args.case, orders=args.orders, precision=args.precision,
                       format=args.format, out=args.out)

    expansion = run_hpm(cfg.problem, cfg.orders)
    wave = deng_wave(cfg.problem)
    table = build_error_table(expansion, wave, cfg.report_orders, cfg.grid_t, cfg.grid_x,
                              digits=cfg.precision)

    plot_text = tables.render_plot_data(table)
    if cfg.out:
        plot_path = cfg.out + ".plot.csv"
        _write(cfg.out, lambda handle: tables.emit_table(table, cfg.format, handle))
        _write(plot_path, lambda handle: handle.write(plot_text))
        print(f"table written to {cfg.out}; convergence data to {plot_path}")
    else:
        tables.emit_table(table, cfg.format, sys.stdout)
        print()
        sys.stdout.write(plot_text)
    with working_dps(cfg.precision):
        worst = table.max_cell()
        print(f"max relative error over grid: {sci10(worst)} ({sci10(100 * worst)} %)")
        ratio, x, t = max((abs(to_mpf(t)) / radius, x, t) for x in cfg.grid_x
                          for radius in [wave.t_radius(x, cfg.precision)] for t in cfg.grid_t)
        if ratio >= 1:
            print(f"warning: t = {t} is {mpmath.nstr(ratio, 3)} times the t-radius of "
                  f"convergence R(x) at x = {x}; the partial sums diverge there", file=sys.stderr)
    return 0


def golden_command(args) -> int:
    """Compare all presets against the built-in reference tables."""
    cases = [args.case] if args.case else [1, 2, 3]
    all_passed = True
    for case_id in cases:
        problem = case_preset(case_id)
        expansion = run_hpm(problem, max(golden_data.REFERENCE_ORDERS) - 1)  # up to S6
        wave = deng_wave(problem)
        table = build_error_table(
            expansion,
            wave,
            orders=golden_data.REFERENCE_ORDERS,
            ts=golden_data.GRID_T,
            xs=golden_data.GRID_X,
            digits=args.precision,
            case_id=case_id,
        )
        comparison = golden_compare(table, case_id)
        print(comparison.summary())
        if failures := comparison.failures():
            for check in comparison.checks if args.verbose else failures:
                print("  " + check.describe())
        all_passed = all_passed and comparison.passed
    return 0 if all_passed else EXIT_GOLDEN_FAIL


def terms_command(args) -> int:
    """Print the series terms v_0..v_K in closed form."""
    problem = case_preset(args.case)
    expansion = run_hpm(problem, args.orders)
    print(f"E = exp(kappa*x), kappa = {problem.kappa}")
    for k, term in enumerate(expansion.terms):
        print(f"v_{k} = {term}")
    return 0


def taylor_check_command(args) -> int:
    """Verify t^k series coefficients against the exact wave's Taylor data."""
    cases = [args.case] if args.case else [1, 2, 3]
    tolerance = mpmath.mpf(TAYLOR_TOLERANCE)
    failed = False
    for case_id in cases:
        problem = case_preset(case_id)
        expansion = run_hpm(problem, args.orders)
        wave = deng_wave(problem)
        worst = max_taylor_deviation(expansion, wave, TAYLOR_SAMPLE_X, digits=args.precision)
        ok = worst <= tolerance
        print(
            f"case {case_id}: max coefficient deviation {sci10(worst)} "
            f"({'PASS' if ok else 'FAIL'} at {TAYLOR_TOLERANCE})"
        )
        failed = failed or not ok
    return EXIT_GOLDEN_FAIL if failed else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors are one line on stderr, exit 2."""

    def error(self, message: str):
        self.exit(EXIT_CONFIG, f"usage error: {self.prog}: {message}\n")


def _setting(key: str):
    """Argument type: the value of config key ``key``, by its parser in
    ``PARSERS``; a faulty value is a usage error."""
    def parse(text: str):
        try:
            return PARSERS[key](text, 0)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return parse


def _spellings(key: str) -> str:
    """Metavar of an option that takes config key ``key``'s spellings."""
    return "{" + ",".join(PARSERS[key].spellings) + "}"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bhhpm",
        allow_abbrev=False,
        description="Exact perturbation-series solver for the generalized Burgers-Huxley "
                    "equation, with reference-table verification.",
    )
    commands = parser.add_subparsers(dest="command", metavar="COMMAND", required=True)

    def command(name, func, one_of=(), **options):
        """Add sub-command ``name``; exactly one of the flags in ``one_of``
        must be given."""
        sub = commands.add_parser(name, help=func.__doc__, description=func.__doc__,
                                  allow_abbrev=False)
        sub.set_defaults(func=func)
        source = sub.add_mutually_exclusive_group(required=True) if one_of else sub
        for flag, kwargs in options.items():
            (source if flag in one_of else sub).add_argument(flag, **kwargs)

    case = dict(type=_setting("case"), metavar=_spellings("case"))
    orders = dict(type=_setting("orders"), metavar="N")
    precision = dict(type=_setting("precision"), metavar="DIGITS",
                     help="Significant decimal digits.")
    command("run", run_command, one_of=("--config", "--case"), **{
        "--config": dict(metavar="PATH", help="Config file (key = value lines)."),
        "--case": dict(case, help="Built-in benchmark case instead of a config file."),
        "--orders": dict(orders, help="Highest series order K."),
        "--precision": precision,
        "--format": dict(type=_setting("format"), metavar=_spellings("format"),
                         help="Table output format."),
        "--out": dict(metavar="PATH", help="Output path (stdout when omitted)."),
    })
    command("golden", golden_command, **{
        "--case": dict(case, help="Check a single case (default: all three)."),
        "--precision": dict(precision, default=DEFAULT_DIGITS),
        "--verbose": dict(action="store_true", help="Print every cell comparison."),
    })
    command("terms", terms_command, **{
        "--case": dict(case, required=True, help="Benchmark case."),
        "--orders": dict(orders, default=3, help="Series order K. [default: 3]"),
    })
    command("taylor-check", taylor_check_command, **{
        "--case": dict(case, help="Check a single case (default: all three)."),
        "--orders": dict(orders, default=6, help="Highest order checked. [default: 6]"),
        "--precision": dict(precision, default=DEFAULT_DIGITS),
    })
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; return its exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, or a usage error already reported
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left: the flush at exit goes to os.devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(AttributeError, OSError, ValueError):  # stdout is no file
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_STDOUT_CLOSED
    except ContractViolation as exc:
        print(f"internal contract violation: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except BHError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
