"""README's examples run as documented."""

import re
from fractions import Fraction
from pathlib import Path

from bhhpm import case_preset, parse_config

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def block(language: str) -> str:
    """The one fenced block of ``language`` in README."""
    (text,) = re.findall(rf"^```{language}\n(.*?)^```$", README, re.M | re.S)
    return text


def test_library_example_runs():
    exec(compile(block("python"), "README.md", "exec"), {})


def test_config_example_parses_to_documented_values():
    cfg = parse_config(block("ini"))
    assert cfg.problem == case_preset(3)
    assert cfg.orders == 5
    assert cfg.report_orders == (1, 3, 5, 6)
    assert cfg.grid_x == (1, 2, 3)
    assert cfg.grid_t == (Fraction(1, 10), Fraction(3, 10), Fraction(2, 5))
    assert cfg.precision == 30
    assert cfg.format == "csv"
    assert cfg.out == "table.csv"
