"""Line-oriented ``key = value`` run configuration.

Accepted keys: case, alpha, beta, gamma, n, branch, x0, orders,
report_orders, grid_x, grid_t, precision, format, out.  ``#`` starts a
comment.  Numbers may be integers, fractions ("p/q"), terminating decimals,
or quadratic literals ("a+b*sqrt(d)" with rational a and b).  A ``case``
preset fixes the problem parameters; explicitly setting any of them next to
``case`` is a conflict, as is repeating a key.  ``parse_config`` resolves all
defaults: ``cfg.problem`` is the resolved ``BHProblem``, a preset or one built
from the problem keys the text sets.  ``render_config`` writes that problem's
parameters explicitly, so ``parse_config(render_config(cfg)) == cfg``.

Errors carry the 1-based line number and come in three classes: syntax
(malformed lines, unknown keys, bad enumeration values), conflict (duplicate
keys, preset overrides, inconsistent order lists, missing problem), and
number (malformed numeric literals).  Parameters outside the problem's domain
raise ``ProblemDomainError`` once every other key has passed its checks.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import BHError
from .golden import DISPLAY_ORDERS, GRID_T, GRID_X
from .problem import BHProblem, BRANCHES, case_preset
from .scalars import DEFAULT_DIGITS, QuadraticNumber

PROBLEM_KEYS = ("alpha", "beta", "gamma", "n", "branch", "x0")
KNOWN_KEYS = PROBLEM_KEYS + (
    "case",
    "orders",
    "report_orders",
    "grid_x",
    "grid_t",
    "precision",
    "format",
    "out",
)

DEFAULT_ORDERS = 5


class ConfigError(BHError, ValueError):
    """Base class for configuration problems; carries a 1-based line number."""

    def __init__(self, message: str, line: int = 0) -> None:
        self.line = line
        suffix = f" at line {line}" if line else ""
        super().__init__(f"{message}{suffix}")


class ConfigSyntaxError(ConfigError):
    pass


class ConfigConflictError(ConfigError):
    pass


class ConfigNumberError(ConfigError):
    pass


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+|\.\d+)?$")
_SQRT_RE = re.compile(
    r"^(?P<b>[+-]?(?:\d+(?:/\d+|\.\d+)?\*)?)sqrt\((?P<d>\d+)\)$"
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
    """Parse "p/q", a decimal, or "a+b*sqrt(d)" (either part optional)."""
    text = text.strip().replace(" ", "")
    if "sqrt" not in text:
        return QuadraticNumber.from_rational(parse_rational(text, line))
    # split a leading rational part, if any, from the radical term
    split = -1
    depth = 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and i > 0 and depth == 0 and text[i - 1] not in "+-*/":
            split = i
    if split > 0:
        head, tail = text[:split], text[split:]
        if "sqrt" in head:
            raise ConfigNumberError(f"invalid number literal {text!r}", line)
        rational = parse_rational(head, line)
        sign = 1 if tail[0] == "+" else -1
        radical_text = tail[1:]
    else:
        rational = Fraction(0)
        sign = 1
        radical_text = text
    match = _SQRT_RE.match(radical_text)
    if not match:
        raise ConfigNumberError(f"invalid number literal {text!r}", line)
    b_text = match.group("b")
    if b_text in ("", "+"):
        b = Fraction(1)
    elif b_text == "-":
        b = Fraction(-1)
    else:
        b = parse_rational(b_text.rstrip("*"), line)
    try:
        return QuadraticNumber(rational, sign * b, int(match.group("d")))
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


_CASE_NAMES = {"case1": 1, "case2": 2, "case3": 3, "1": 1, "2": 2, "3": 3}

_LINE_RE = re.compile(r"^(?P<key>[A-Za-z_][A-Za-z0-9_]*)\s*=\s*(?P<value>.*)$")


def _parse_int(text: str, line: int, key: str, minimum: int = 1) -> int:
    try:
        value = int(text)
    except ValueError:
        raise ConfigNumberError(f"invalid number literal {text!r}", line)
    if value < minimum:
        raise ConfigNumberError(f"{key} must be at least {minimum}", line)
    return value


def _parse_list(text: str, line: int) -> list[str]:
    items = [part.strip() for part in text.split(",")]
    if any(not part for part in items):
        raise ConfigSyntaxError("empty list entry", line)
    return items


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
        if key not in KNOWN_KEYS:
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

    case_id: int | None = None
    # the problem keys the text sets; BHProblem supplies the others' defaults
    params: dict[str, object] = {}
    if "case" in raw:
        value, lineno = raw["case"]
        if value not in _CASE_NAMES:
            raise ConfigSyntaxError(f"unknown case {value!r}", lineno)
        case_id = _CASE_NAMES[value]
        for key in PROBLEM_KEYS:
            if key in raw:
                raise ConfigConflictError(
                    f"{key!r} conflicts with preset 'case' (line {raw['case'][1]})",
                    raw[key][1],
                )
    else:
        # validate every provided literal before completeness checks, so a
        # malformed value is reported at its own line
        for key in ("alpha", "beta", "gamma", "x0"):
            if key in raw:
                params[key] = parse_number(*raw[key])
        if not any(key in raw for key in ("alpha", "beta", "gamma")):
            raise ConfigConflictError(
                "config selects no problem: set 'case' or alpha/beta/gamma"
            )
        for key in ("alpha", "beta", "gamma"):
            if key not in raw:
                raise ConfigConflictError(f"explicit problem needs {key!r}")
        if "n" in raw:
            params["n"] = _parse_int(raw["n"][0], raw["n"][1], "n")
        if "branch" in raw:
            value, lineno = raw["branch"]
            if value not in BRANCHES:
                raise ConfigSyntaxError(
                    f"branch must be 'upper' or 'lower', got {value!r}", lineno
                )
            params["branch"] = value

    # the problem is built last, so a faulty key elsewhere is reported first
    cfg = RunConfig(None)  # type: ignore[arg-type]
    if "orders" in raw:
        cfg.orders = _parse_int(raw["orders"][0], raw["orders"][1], "orders")
    if "precision" in raw:
        cfg.precision = _parse_int(
            raw["precision"][0], raw["precision"][1], "precision", minimum=DEFAULT_DIGITS
        )
    if "report_orders" in raw:
        value, lineno = raw["report_orders"]
        cfg.report_orders = tuple(
            _parse_int(item, lineno, "report_orders") for item in _parse_list(value, lineno)
        )
    else:
        cfg.report_orders = default_report_orders(case_id, cfg.orders)
    bad = [m for m in cfg.report_orders if not 1 <= m <= cfg.orders + 1]
    if bad:
        source = " (orders from --orders)" if raw.get("orders", ("", 1))[1] == 0 else ""
        raise ConfigConflictError(
            f"report_orders {bad} outside 1..orders+1 = 1..{cfg.orders + 1}{source}",
            raw.get("report_orders", ("", 0))[1],
        )
    if "grid_x" in raw:
        value, lineno = raw["grid_x"]
        cfg.grid_x = tuple(parse_rational(item, lineno) for item in _parse_list(value, lineno))
    if "grid_t" in raw:
        value, lineno = raw["grid_t"]
        cfg.grid_t = tuple(parse_rational(item, lineno) for item in _parse_list(value, lineno))
    if "format" in raw:
        value, lineno = raw["format"]
        if value not in ("csv", "md", "markdown"):
            raise ConfigSyntaxError(
                f"format must be 'csv' or 'markdown', got {value!r}", lineno
            )
        cfg.format = "markdown" if value in ("md", "markdown") else "csv"
    if "out" in raw:
        cfg.out = raw["out"][0]
    cfg.problem = case_preset(case_id) if case_id else BHProblem(**params)
    return cfg


def render_config(cfg: RunConfig) -> str:
    """Emit a config that parses back to an equal RunConfig."""
    lines = [f"{key} = {getattr(cfg.problem, key)}" for key in PROBLEM_KEYS]
    lines.append(f"orders = {cfg.orders}")
    lines.append("report_orders = " + ", ".join(str(m) for m in cfg.report_orders))
    lines.append("grid_x = " + ", ".join(str(x) for x in cfg.grid_x))
    lines.append("grid_t = " + ", ".join(str(t) for t in cfg.grid_t))
    lines.append(f"precision = {cfg.precision}")
    lines.append(f"format = {cfg.format}")
    if cfg.out is not None:
        lines.append(f"out = {cfg.out}")
    return "\n".join(lines) + "\n"
