from __future__ import annotations

import io
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import Callable, NamedTuple

import mpmath
import pytest
from hypothesis import Phase, settings
from mpmath import mpf

from bhhpm import BHProblem, HPMExpansion, QuadraticNumber, case_preset, run_hpm
from bhhpm.cli import main
from bhhpm.hpm import Poly, _coeffs, _lattice, _sum_products
from bhhpm.scalars import DEFAULT_DIGITS, GUARD_DIGITS, to_mpf, working_dps

# A failing example prints the @reproduce_failure blob that replays it, and the shrink
# phase is left out, so a failing test reports in seconds instead of shrinking for
# minutes.  The profile extends the one hypothesis has loaded (its own "ci" profile on
# CI), so deadlines, example counts, random examples and the example database stay; it
# is loaded here, before any test module, so every test's own @settings inherits it.
settings.register_profile("report", settings.default, print_blob=True, phases=[
    phase for phase in settings.default.phases if phase is not Phase.shrink])
settings.load_profile("report")


def quad(a, b=0, d=0) -> QuadraticNumber:
    return QuadraticNumber(Fraction(a), Fraction(b), d)


#: Fronts the series accepts: the presets, a slow front, the lower branch
#: shifted by x0, and a front whose alpha and beta carry a sqrt(2) half
#: (radicand 2, kappa = (-1 + sqrt(2))/2, c = 2 + sqrt(2)), whose
#: speed*rate = sqrt(2) gives 15 of c_0..c_30 a sqrt(2) content.
FRONTS = {
    "case1": case_preset(1), "case2": case_preset(2), "case3": case_preset(3),
    "slow": BHProblem(31622, Fraction(7, 8), 1),
    "lower-x0": BHProblem(-1, Fraction(3, 2), Fraction(2, 3), branch="lower", x0=Fraction(7, 3)),
    "surd-beta": BHProblem(QuadraticNumber(2, 1, 2),
                           QuadraticNumber(Fraction(3, 2), Fraction(-1, 2), 2), 2),
}


#: A front with gamma < 0, so u < 0 everywhere: where a sum keeps its smaller
#: addend only as a sticky bit, the result must carry the sign of the larger one.
NEGATIVE_FRONT = BHProblem(Fraction(3, 4), Fraction(5, 2), Fraction(-3, 2))


#: kappa about 11.35 puts every sample point in a tail: sigma -> 0 on the lower
#: branch (the worst of 220 random fronts for an oracle on A*(1 + s*tanh)) and
#: sigma -> 1 on the upper, where the oracle must not form 1 - sigma by cancellation
STEEP_FRONTS = {f"steep-{branch}": BHProblem(Fraction(-7, 2), 40, Fraction(37, 6),
                                             branch=branch, x0=Fraction(21, 5))
                for branch in ("lower", "upper")}


def random_quad(rng: random.Random, d: int = 2) -> QuadraticNumber:
    return quad(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        d,
    )


def random_coeffs(rng: random.Random, degree: int = 3, nonzero: bool = False, d: int = 2,
                  line: QuadraticNumber | None = None) -> tuple[QuadraticNumber, ...]:
    """Coefficients of a random sigma-polynomial of degree at most ``degree``,
    rational multiples of ``line`` (a random nonzero value of Q(sqrt(d)) when
    None), so all on the one line of Q(sqrt(d)) that the series engine
    holds; about half of them zero, trailing zeros trimmed; with ``nonzero``,
    never the zero polynomial."""
    line = (random_quad(rng, d) or quad(1, 1, d)) if line is None else line
    coeffs = [line * Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if rng.random() < 0.5
              else quad(0) for _ in range(degree + 1)]
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    if nonzero and not coeffs:
        return (quad(0),) * rng.randint(0, degree) + (line,)
    return tuple(coeffs)


def random_poly(rng: random.Random, degree: int = 3, nonzero: bool = False, d: int = 2,
                line: QuadraticNumber | None = None) -> Poly:
    """``random_coeffs`` as the engine's polynomial over radicand d: a content
    on the line of ``line`` times an integer list."""
    return _lattice(random_coeffs(rng, degree, nonzero, d, line), d)


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
    return HPMExpansion(problem, (p,)).profiles_at(x, digits)[0]


# --- plain-mpf references ----------------------------------------------------
# Copies of the engine's evaluation route written with mpf operators and no
# call into bhhpm's numeric code: the engine runs the same operations on raw
# libmp values, and every result must keep these bits.

def plain_surd(u: int, v: int, d: int) -> mpf:
    """u + v*sqrt(d), through the conjugate (u^2 - v^2*d)/(u - v*sqrt(d))
    where the parts have opposite signs."""
    if not v:
        return mpf(u)
    root = v * mpmath.sqrt(d)
    if u == 0 or (u > 0) == (v > 0):
        return u + root
    return (u * u - v * v * d) / (u - root)


def plain_to_mpf(value) -> mpf:
    """An int, Fraction, QuadraticNumber or mpf at the working precision."""
    if isinstance(value, QuadraticNumber):
        w = math.lcm(value.rational.denominator, value.radical.denominator)
        return plain_surd(int(value.rational * w), int(value.radical * w), value.radicand) / w
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


def plain_value_at(p: Poly, m: int, s: int, d: int) -> mpf:
    """P(m/2^s) by Horner's rule in integers on P's list q, times its content."""
    a, b, den, q = p
    top = len(q) - 1
    u = 0
    for i in range(top, -1, -1):
        u = u * m + (q[i] << s * (top - i))
    return mpmath.ldexp(plain_surd(a * u, b * u, d) / den, -s * top)


def two_half_value_at(p: Poly, m: int, s: int, d: int) -> mpf:
    """P(m/2^s) by Horner's rule on two integer lists A and B, P's coefficients
    being (A[i] + B[i]*sqrt(d))/D over their least common denominator D: the
    evaluation of a polynomial held without a common content, a reference for
    the bits of ``profiles_at``."""
    coeffs = _coeffs(p, d)
    den = math.lcm(*[f.denominator for c in coeffs for f in (c.rational, c.radical)])
    a = [int(c.rational * den) for c in coeffs]
    b = [int(c.radical * den) for c in coeffs]
    top = len(coeffs) - 1
    u = v = 0
    # sum_i c_i*(m/2^s)^i = (sum_i c_i*m^i*2^(s*(top - i)))/2^(s*top)
    for i in range(top, -1, -1):
        u = u * m + (a[i] << s * (top - i))
        v = v * m + (b[i] << s * (top - i))
    return mpmath.ldexp(plain_surd(u, v, d) / den, -s * top)


def plain_profiles_at(expansion: HPMExpansion, x, digits: int = DEFAULT_DIGITS,
                      value_at: Callable[[Poly, int, int, int], mpf] = plain_value_at) -> list[mpf]:
    """c_0(x)..c_K(x) at sigma = m/2^s, the smaller of sigma and 1 - sigma
    rounded once, each coefficient by ``value_at``."""
    problem = expansion.problem
    with working_dps(digits):
        arg = plain_to_mpf(x) + plain_to_mpf(problem.x0) if problem.x0 else plain_to_mpf(x)
        z = -2 * problem.sign * plain_to_mpf(problem.kappa) * arg
        man, exp = (1 / (1 + mpmath.exp(abs(z)))).man_exp
        m, s = man, -exp
        if z < 0:
            m = (1 << s) - m
        return [value_at(c, m, s, problem.radicand) for c in expansion.series]


def plain_wave_base(problem: BHProblem, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
    """gamma/(1 + exp(-2*s*kappa*(x - c*t + x0))): the wave at n = 1, the base
    of its n-th root at n >= 2."""
    with working_dps(digits):
        speed_t = plain_to_mpf(problem.speed) * plain_to_mpf(t)
        phase = plain_to_mpf(problem.kappa) * (plain_to_mpf(x) - speed_t + plain_to_mpf(problem.x0))
        return +(plain_to_mpf(problem.gamma) / (1 + mpmath.exp(-2 * problem.sign * phase)))


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


def t_power(k: int) -> str:
    """The text a printed term v_k ends in: its factor t^k."""
    return "" if k == 0 else " * t" if k == 1 else f" * t^{k}"


def matches_reference(expansion: HPMExpansion, k: int,
                      form: tuple[QuadraticNumber, dict[int, int], int]) -> bool:
    """Exact identity of the expansion's c_k with the published closed form,
    in Q(sqrt(d)).

    At E = s, sigma = s^2/(s^2 + 1) (1/(s^2 + 1) on the lower branch).
    Times s^2*(s^2 + 1)^M, M = max(deg c_k, power), both sides are
    polynomials in s of degree at most 2*M + 4, so agreeing at more points
    s than that proves the identity.
    """
    factor, numerator, power = form
    coeffs = _coeffs(expansion.series[k], expansion.problem.radicand)
    points = 2 * max(len(coeffs) - 1, power) + 5
    for s in (Fraction(j) for j in range(1, points + 1)):
        sigma = s * s / (s * s + 1) if expansion.problem.sign > 0 else 1 / (s * s + 1)
        computed = quad(0)
        for c in reversed(coeffs):
            computed = computed * sigma + c
        published = factor * sum(c * s**e for e, c in numerator.items()) * (s + 1 / s) ** -power
        if computed != published:
            return False
    return True


#: Pointwise-evaluable space-time function: f(x, t, digits) -> mpf.
PointFunction = Callable[[mpf, mpf, int], mpf]


def pde_residual(
    u: PointFunction,
    problem: BHProblem,
    x,
    t,
    step: Fraction = Fraction(1, 10**8),
    digits: int = DEFAULT_DIGITS,
) -> mpf:
    """|u_t - u_xx + alpha*u^n*u_x - beta*u*(1-u^n)*(u^n-gamma)| at (x, t).

    Derivatives use 5-point central stencils with the given step; the stencil
    evaluations run with enough extra digits to absorb the cancellation of
    nearly equal values, so the result is truncation-limited at O(step^4).
    """
    step = Fraction(step)
    if step <= 0:
        raise ValueError("step must be positive")
    # dividing O(step)-cancelling differences by step^2 costs about
    # 2*log10(1/step) digits; work with that margin on top of the target
    cancel = 2 * len(str(step.denominator))
    inner = digits + cancel
    with working_dps(inner + GUARD_DIGITS):
        xv, tv, h = to_mpf(x), to_mpf(t), to_mpf(step)

        def f(xx: mpf, tt: mpf) -> mpf:
            return u(xx, tt, inner)

        ut = (-f(xv, tv + 2 * h) + 8 * f(xv, tv + h) - 8 * f(xv, tv - h) + f(xv, tv - 2 * h)) / (12 * h)
        fp2, fp1, f0, fm1, fm2 = (
            f(xv + 2 * h, tv),
            f(xv + h, tv),
            f(xv, tv),
            f(xv - h, tv),
            f(xv - 2 * h, tv),
        )
        ux = (-fp2 + 8 * fp1 - 8 * fm1 + fm2) / (12 * h)
        uxx = (-fp2 + 16 * fp1 - 30 * f0 + 16 * fm1 - fm2) / (12 * h * h)

        alpha = to_mpf(problem.alpha)
        beta = to_mpf(problem.beta)
        gamma = to_mpf(problem.gamma)
        un = f0**problem.n
        residual = ut - uxx + alpha * un * ux - beta * f0 * (1 - un) * (un - gamma)
        return +abs(residual)


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
