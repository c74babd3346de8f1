from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import NamedTuple

import pytest
from mpmath import mpf

from bhhpm import BHProblem, HPMExpansion, QuadraticNumber, SeriesTerm, case_preset, run_hpm
from bhhpm.cli import main
from bhhpm.hpm import Poly, _lattice, _sum_products


def quad(a, b=0, d=0) -> QuadraticNumber:
    return QuadraticNumber(Fraction(a), Fraction(b), d)


def random_quad(rng: random.Random, d: int = 2) -> QuadraticNumber:
    return quad(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        d,
    )


def random_coeffs(rng: random.Random, degree: int = 3, nonzero: bool = False,
                  d: int = 2) -> tuple[QuadraticNumber, ...]:
    """Coefficients of a random sigma-polynomial of degree at most ``degree``,
    about half of them zero, trailing zeros trimmed; with ``nonzero``, never
    the zero polynomial."""
    coeffs = [random_quad(rng, d) if rng.random() < 0.5 else quad(0)
              for _ in range(degree + 1)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if nonzero and not coeffs:
        return (quad(0),) * rng.randint(0, degree) + (quad(1, 1, d),)
    return tuple(coeffs)


def random_poly(rng: random.Random, degree: int = 3, nonzero: bool = False, d: int = 2) -> Poly:
    """``random_coeffs`` as the engine's integer triple over radicand d."""
    return _lattice(random_coeffs(rng, degree, nonzero, d), d)


def add(a: Poly, b: Poly, d: int) -> Poly:
    """a + b with the engine's linear combination: 1*a + 1*b."""
    one = _lattice([1], d)
    return _sum_products(d, [(one, a), (one, b)])


def mul(a: Poly, b: Poly, d: int) -> Poly:
    """a * b with the engine's sum of products."""
    return _sum_products(d, [(a, b)])


def sigma_value(p: Poly, problem: BHProblem, x, digits: int = 30) -> mpf:
    """P(sigma(x)) on the front of ``problem`` (P over its radicand), through
    the engine's one evaluation route, ``HPMExpansion.profiles_at``."""
    return HPMExpansion(problem, ((p,),)).profiles_at(x, digits)[0]


#: Numerators of the published closed forms, as {exponent of E: coefficient}.
ONE = {0: 1}
ODD = {1: 1, -1: -1}            # E - E^-1
HUMP = {2: 1, 0: -4, -2: 1}     # E^2 - 4 + E^-2


def reference_terms(case_id: int) -> list[tuple[QuadraticNumber, dict[int, int], int]]:
    """Published closed forms of v_1..v_3 for the benchmark cases, each
    factor*numerator(E)/(E + E^-1)^power * t^k as (factor, numerator, power).

    The case-3 t^3 factor uses 388 (the printed 389 fails both the Taylor
    oracle and the source's own convergence table; see tests below).
    """
    if case_id == 1:
        return [(quad(Fraction(-1, 2)), ONE, 2), (quad(Fraction(-1, 8)), ODD, 3),
                (quad(Fraction(-1, 48)), HUMP, 4)]
    if case_id == 2:
        return [(quad(Fraction(-3, 4)), ONE, 2), (quad(Fraction(9, 32)), ODD, 3),
                (quad(Fraction(-9, 128)), HUMP, 4)]
    return [(Fraction(-9, 2) * quad(-4, 3, 3), ONE, 2),
            (Fraction(27, 8) * quad(43, -24, 3), ODD, 3),
            (Fraction(27, 16) * quad(388, -225, 3), HUMP, 4)]


def matches_reference(term: SeriesTerm, form: tuple[QuadraticNumber, dict[int, int], int]) -> bool:
    """Exact identity of c_k with the published closed form, in Q(sqrt(d)).

    At E = s, sigma = s^2/(s^2 + 1) (1/(s^2 + 1) on the lower branch).
    Times s^2*(s^2 + 1)^M, M = max(deg c_k, power), both sides are
    polynomials in s of degree at most 2*M + 4, so agreeing at more points
    s than that proves the identity.
    """
    factor, numerator, power = form
    points = 2 * max(len(term.coeffs) - 1, power) + 5
    for s in (Fraction(j) for j in range(1, points + 1)):
        sigma = s * s / (s * s + 1) if term.sign > 0 else 1 / (s * s + 1)
        computed = quad(0)
        for c in reversed(term.coeffs):
            computed = computed * sigma + c
        published = factor * sum(c * s**e for e, c in numerator.items()) / (s + 1 / s) ** power
        if computed != published:
            return False
    return True


@pytest.fixture(scope="session")
def expansions():
    """Order-5 expansions for the three benchmark cases."""
    return {cid: run_hpm(case_preset(cid), 5) for cid in (1, 2, 3)}


@pytest.fixture(scope="session")
def expansions_k6():
    """Order-6 expansions for the three benchmark cases."""
    return {cid: run_hpm(case_preset(cid), 6) for cid in (1, 2, 3)}


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None

    @property
    def output(self) -> str:
        """Standard output followed by standard error."""
        return self.stdout + self.stderr


def run_cli(args: list[str]) -> CliResult:
    """``bhhpm ARGS`` in process: its exit code, captured stdout and stderr,
    and the exception that escaped ``main`` (None when none did)."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(args)
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), exception)
