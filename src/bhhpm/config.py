"""Line-oriented ``key = value`` run configuration.

``PARSERS`` holds the accepted keys, each with the parser of its value.
``#`` starts a comment.  Numbers may be integers, fractions ("p/q"),
terminating decimals, or quadratic literals ("a+b*sqrt(d)" with rational a
and b).  A ``case`` preset fixes the problem parameters; explicitly setting
any of them next to ``case`` is a conflict, as is repeating a key.
``parse_config`` resolves all defaults: ``cfg.problem`` is the resolved
``BHProblem``, a preset or one built from the problem keys the text sets.
``render_config`` writes that problem's parameters explicitly, so
``parse_config(render_config(cfg)) == cfg``.

A ``ConfigError`` carries the 1-based line number.  Every value is parsed
before the rules across keys apply (the preset conflict, a complete problem,
``report_orders`` in 1..orders+1), so a faulty value is reported first.
Parameters outside the problem's domain raise ``ProblemDomainError`` once
every other key has passed its checks.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BHError
from .golden import DISPLAY_ORDERS, GRID_T, GRID_X
from .problem import BHProblem, BRANCHES, case_preset
from .scalars import DEFAULT_DIGITS, QuadraticNumber

PROBLEM_KEYS = ("alpha", "beta", "gamma", "n", "branch", "x0")

DEFAULT_ORDERS = 5
#: Upper bounds of ``orders`` and ``precision`` (digits): the series' cost grows
#: about as orders^4 and each value's with its digits, so these bound what an
#: accepted input may ask for.
MAX_ORDERS = 100
MAX_PRECISION = 10000


class ConfigError(BHError, ValueError):
    """Base class for configuration problems; carries a 1-based line number."""

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        suffix = f" at line {line}" if line else ""
        super().__init__(f"{message}{suffix}")


class ConfigSyntaxError(ConfigError):
    """A malformed line, an unknown key or a bad enumeration value."""


class ConfigConflictError(ConfigError):
    """A duplicate key, a preset override, an inconsistent order list or no problem."""


class ConfigNumberError(ConfigError):
    """A malformed numeric literal, or an integer outside its range."""


_R = r"\d+(?:/\d+|\.\d+)?"  # an unsigned integer, fraction or terminating decimal
_RATIONAL_RE = re.compile(rf"^[+-]?{_R}$")
_QUADRATIC_RE = re.compile(
    rf"^(?:(?P<a>[+-]?{_R})(?P<s>[+-]))?(?P<b>[+-]?(?:{_R}\*)?)sqrt\((?P<d>\d+)\)$"
)


def parse_rational(text: str, line: int = 0) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ConfigNumberError(f"invalid number literal {text!r}", line)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ConfigNumberError(f"invalid number literal {text!r}", line)


def parse_number(text: str, line: int = 0) -> QuadraticNumber:
    """Parse "p/q", a decimal, or "a+b*sqrt(d)" (a and b optional)."""
    text = text.strip().replace(" ", "")
    match = _QUADRATIC_RE.match(text)
    if not match:
        return QuadraticNumber.from_rational(parse_rational(text, line))
    a, s, b, d = match.group("a", "s", "b", "d")
    rational = parse_rational(a, line) if a else 0
    radical = parse_rational(b[:-1] if b.endswith("*") else b + "1", line)
    try:
        return QuadraticNumber(rational, -radical if s == "-" else radical, int(d))
    except ValueError as exc:
        raise ConfigNumberError(f"invalid number literal {text!r}: {exc}", line)


class RunConfig:
    """Fully resolved run description; configs with equal fields are equal."""

    def __init__(
        self,
        problem: BHProblem,
        orders: int = DEFAULT_ORDERS,
        report_orders: tuple[int, ...] = (),
        grid_x: tuple[Fraction, ...] = GRID_X,
        grid_t: tuple[Fraction, ...] = GRID_T,
        precision: int = DEFAULT_DIGITS,
        format: str = "markdown",
        out: str | None = None,
    ) -> None:
        self.problem = problem
        self.orders = orders
        self.report_orders = report_orders
        self.grid_x = grid_x
        self.grid_t = grid_t
        self.precision = precision
        self.format = format
        self.out = out

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


def default_report_orders(case: int | None, orders: int) -> tuple[int, ...]:
    if case is not None:
        display = DISPLAY_ORDERS[case]
        if max(display) <= orders + 1:
            return display
    return tuple(range(1, orders + 2))


_LINE_RE = re.compile(r"^(?P<key>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<value>.*)$")


def _integer(key: str, minimum: int = 1, maximum: int | None = None):
    """Parser of an integer ``key`` no smaller than ``minimum`` and, if given,
    no larger than ``maximum``."""
    def parse(text: str, line: int = 0) -> int:
        try:
            value = int(text)
        except ValueError:
            raise ConfigNumberError(f"invalid number literal {text!r}", line)
        if value < minimum:
            raise ConfigNumberError(f"{key} must be at least {minimum}", line)
        if maximum is not None and value > maximum:
            raise ConfigNumberError(f"{key} must be at most {maximum}", line)
        return value
    return parse


def _listed(parse):
    """Parser of a comma-separated list of ``parse``'s values."""
    def parse_list(text: str, line: int = 0) -> tuple:
        items = [part.strip() for part in text.split(",")]
        if any(not part for part in items):
            raise ConfigSyntaxError("empty list entry", line)
        return tuple(parse(item, line) for item in items)
    return parse_list


def _named(values: dict, message: str):
    """Parser of a spelling in ``values`` to its value; ``message`` names a
    faulty one."""
    def parse(text: str, line: int = 0):
        if text not in values:
            raise ConfigSyntaxError(message.format(text), line)
        return values[text]
    parse.spellings = tuple(values)  # for the CLI's metavar
    return parse


def _path(text: str, line: int = 0) -> str:
    """An output path that a config line holds as it is."""
    if "#" in text or len(text.splitlines()) != 1 or text != text.strip():
        raise ConfigSyntaxError("out must be a nonempty path without '#', line breaks or "
                                f"spaces at either end, got {text!r}", line)
    return text


#: Every config key with its parser ``parse(text, line)``, which holds the
#: key's syntax, range and aliases; the CLI options of the same name parse
#: with it too.  Faulty values are reported in this order.
PARSERS = {
    "case": _named({name: c for c in (1, 2, 3) for name in (str(c), f"case{c}")},
                   "unknown case {!r}"),
    "alpha": parse_number,
    "beta": parse_number,
    "gamma": parse_number,
    "x0": parse_number,
    "n": _integer("n"),
    "branch": _named(dict(zip(BRANCHES, BRANCHES)), "branch must be 'upper' or 'lower', got {!r}"),
    "orders": _integer("orders", maximum=MAX_ORDERS),
    "precision": _integer("precision", DEFAULT_DIGITS, MAX_PRECISION),
    "report_orders": _listed(_integer("report_orders")),
    "grid_x": _listed(parse_rational),
    "grid_t": _listed(parse_rational),
    "format": _named({"csv": "csv", "md": "markdown", "markdown": "markdown"},
                     "format must be 'csv' or 'markdown', got {!r}"),
    "out": _path,
}


def parse_config(text: str, *, case: int | None = None, orders: int | None = None,
                 precision: int | None = None, format: str | None = None,
                 out: str | None = None) -> RunConfig:
    """The resolved config of ``text``.  Each keyword that is not None
    replaces the text's entry for its key, as a value without a line number;
    defaults, ranges and aliases then apply to it as to the text's own."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        match = _LINE_RE.match(body)
        if not match:
            raise ConfigSyntaxError(f"expected 'key = value', got {body!r}", lineno)
        key, value = match.group("key"), match.group("value").strip()
        if key not in PARSERS:
            raise ConfigSyntaxError(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ConfigConflictError(
                f"duplicate key {key!r} (first set at line {raw[key][1]})", lineno
            )
        if not value:
            raise ConfigSyntaxError(f"missing value for {key!r}", lineno)
        raw[key] = (value, lineno)
    overrides = {"case": case, "orders": orders, "precision": precision,
                 "format": format, "out": out}
    raw.update((key, (str(value), 0)) for key, value in overrides.items() if value is not None)

    values = {key: parse(*raw[key]) for key, parse in PARSERS.items() if key in raw}
    if "case" in raw:
        source = f"line {raw['case'][1]}" if raw["case"][1] else "the case argument"
        for other in PROBLEM_KEYS:
            if other in raw:
                raise ConfigConflictError(f"{other!r} conflicts with preset 'case' ({source})",
                                          raw[other][1])
    else:
        missing = [other for other in ("alpha", "beta", "gamma") if other not in raw]
        if len(missing) == 3:
            raise ConfigConflictError("config selects no problem: set 'case' or alpha/beta/gamma")
        if missing:
            raise ConfigConflictError(f"explicit problem needs {missing[0]!r}")
    top = values.get("orders", DEFAULT_ORDERS)
    report = values.setdefault("report_orders", default_report_orders(values.get("case"), top))
    bad = [m for m in report if not 1 <= m <= top + 1]
    if bad:
        source = " (orders from --orders)" if raw.get("orders", ("", 1))[1] == 0 else ""
        raise ConfigConflictError(f"report_orders {bad} outside 1..orders+1 = "
                                  f"1..{top + 1}{source}", raw.get("report_orders", ("", 0))[1])
    case_id = values.pop("case", None)
    params = {key: values.pop(key) for key in PROBLEM_KEYS if key in values}
    # the problem is built last, so a faulty key elsewhere is reported first
    return RunConfig(case_preset(case_id) if case_id else BHProblem(**params), **values)


def render_config(cfg: RunConfig) -> str:
    """Emit a config that parses back to an equal RunConfig."""
    lines = []
    for key in PARSERS:
        if key == "case":  # a preset is written as its parameters
            continue
        value = getattr(cfg.problem if key in PROBLEM_KEYS else cfg, key)
        if isinstance(value, tuple):
            value = ", ".join(str(item) for item in value)
        if value is not None:  # an unset out is left out
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"
