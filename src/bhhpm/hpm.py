"""Order-by-order construction of the perturbation series.

The solution is expanded as v = sum_k p^k v_k in an embedding parameter p.
The zeroth term is the initial profile (time-independent), and each later
term solves  dv_k/dt = [p^(k-1) coefficient of N(v)]  with v_k(x, 0) = 0,
where N(v) = v_xx - alpha*v^n*v_x + beta*((1+gamma)*v^(n+1) - gamma*v -
v^(2n+1)).  With v_0 time-independent this is the time-Taylor series of the
solution: v_k = c_k(x)*t^k with k*c_k = [t^(k-1)] N(u).

Each c_k is a dense polynomial over Q(sqrt(d)) in the logistic variable
sigma = E^2/(E^2 + 1), E = exp(kappa*x) (1/(E^2 + 1) on the lower branch),
so d(sigma)/dx = +/-2*kappa*sigma*(1 - sigma) and derivatives need no
denominators.  The Taylor coefficients of u^2..u^(2n+1) gain one term per
order (Griewank & Walther, Evaluating Derivatives, ch. 13) and
u^n*u_x = d/dx(u^(n+1))/(n+1), so order k costs O(k) polynomial products.

Such a polynomial is held as an integer triple (A, B, D), coefficient i
being (A[i] + B[i]*sqrt(d))/D for the problem's radicand d, so the step runs
on Python ints and reduces each result by one gcd.  ``QuadraticNumber``
stays at the boundaries: the problem's constants go in (``_lattice``) and a
``SeriesTerm``'s coefficients come out (``_coeffs``) to print as the closed
form N(E^2)/(E^2 + 1)^deg.  Numbers come from ``profiles_at`` alone: it
rounds sigma(x) = 1/(1 + exp(-/+2*kappa*x)) once per point to a binary
value and runs Horner's rule on A and B there.  The published closed forms
serve as test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import mpmath
from mpmath import mpf

from .errors import AlgebraDomainError, ContractViolation, UnsupportedProblemError
from .problem import BHProblem
from .scalars import (
    DEFAULT_DIGITS,
    ZERO,
    QuadraticNumber,
    ScalarLike,
    surd_to_mpf,
    to_mpf,
    working_dps,
)

#: A sigma-polynomial (A, B, D), coefficient i = (A[i] + B[i]*sqrt(d))/D,
#: lowest power first; canonical (trailing zeros trimmed, D >= 1,
#: gcd(D, *A, *B) = 1), so equal polynomials are equal tuples.
Poly = tuple[tuple[int, ...], tuple[int, ...], int]
#: Taylor coefficients in t of one function, as sigma-polynomials.
Series = tuple[Poly, ...]

ZERO_POLY: Poly = ((), (), 1)


def _reduced(a: list[int], b: list[int], den: int) -> Poly:
    """The canonical form of sum_i (a[i] + b[i]*sqrt(d))/den * sigma^i."""
    while a and not (a[-1] or b[-1]):
        a.pop()
        b.pop()
    if not a:
        return ZERO_POLY
    g = math.gcd(den, *a, *b)
    # Lists, not generators: CPython sizes a tuple from a generator by a guess
    # and resizes it, and its tuple free lists then hoard the resized blocks
    # (2.3 MB more resident memory after 100 rounds of presets 1-3 to K = 10).
    return tuple([x // g for x in a]), tuple([y // g for y in b]), den // g


def _lattice(coeffs: Iterable[ScalarLike], d: int) -> Poly:
    """The sigma-polynomial with these exact coefficients, lowest power first."""
    qs = [QuadraticNumber.coerce(c) for c in coeffs]
    if any(q.radicand not in (0, d) for q in qs):
        raise AlgebraDomainError(f"a coefficient is not in Q(sqrt({d})): {qs}")
    den = math.lcm(*[f.denominator for q in qs for f in (q.rational, q.radical)])
    return _reduced([int(q.rational * den) for q in qs], [int(q.radical * den) for q in qs], den)


def _coeffs(p: Poly, d: int) -> tuple[QuadraticNumber, ...]:
    """The exact coefficients of P, lowest power first."""
    a, b, den = p
    return tuple(QuadraticNumber(Fraction(x, den), Fraction(y, den), d) for x, y in zip(a, b))


def _sum_products(d: int, pairs: Iterable[tuple[Poly, Poly]]) -> Poly:
    """sum(P * Q) over the pairs on their common denominator, with
    (x + y*sqrt(d))(u + v*sqrt(d)) = xu + yv*d + (xv + yu)*sqrt(d).  One pair
    gives the product; pairs (f, P) with f of degree 0, a linear combination."""
    pairs = [(p, q) for p, q in pairs if p[0] and q[0]]
    den = math.lcm(*[p[2] * q[2] for p, q in pairs])  # a list: see _reduced
    size = max((len(p[0]) + len(q[0]) - 1 for p, q in pairs), default=0)
    a, b = [0] * size, [0] * size
    for (pa, pb, pd), (qa, qb, qd) in pairs:
        s = den // (pd * qd)
        for i, (x, y) in enumerate(zip(pa, pb)):
            if x or y:
                x, y, yd = x * s, y * s, y * s * d
                for j, (u, v) in enumerate(zip(qa, qb), i):
                    a[j] += x * u + yd * v
                    b[j] += x * v + y * u
    return _reduced(a, b, den)


def _dx(d: int, p: Poly, rate: Poly) -> Poly:
    """d/dx of P(sigma), where d(sigma)/dx = rate*sigma*(1 - sigma):
    sigma*(1 - sigma)*P'(sigma) = sum_i (i*p_i - (i-1)*p_(i-1)) sigma^i."""
    a, b, den = p
    da, db = ([i * x - (i - 1) * y for i, (x, y) in enumerate(zip(c + (0,), (0,) + c))]
              for c in (a, b))
    return _sum_products(d, [(rate, (da, db, den))])


def _extended(powers: tuple[Series, ...], c: Poly, d: int) -> tuple[Series, ...]:
    """Append c_m to the series of u, then (u^j)_m = sum_i (u^(j-1))_i * c_(m-i)
    to the series of u^2, u^3, ... in turn."""
    u = powers[0] + (c,)
    extended = [u]
    for power in powers[1:]:
        extended.append(power + (_sum_products(d, zip(extended[-1], reversed(u))),))
    return tuple(extended)


def _closed_form(p: tuple[QuadraticNumber, ...],
                 sign: int) -> tuple[list[QuadraticNumber], list[int]]:
    """Coefficients of N and D, in powers of E^2, with P(sigma) = N/D and
    D = (E^2 + 1)^deg(P), for a nonzero P.

    Horner's rule on sigma = S/(E^2 + 1), S = E^2 on the upper branch and 1
    on the lower: c + sigma*N/D = (c*D*(E^2 + 1) + S*N)/(D*(E^2 + 1)).  At
    E^2 = -1 only the leading coefficient survives, N(-1) = (-1)^deg*p_deg
    (upper) or p_deg (lower), so N/D is in lowest terms.
    """
    num, den = [p[-1]], [1]
    for c in reversed(p[:-1]):
        den = [a + b for a, b in zip(den + [0], [0] + den)]
        lifted = [ZERO] + num if sign > 0 else num + [ZERO]
        num = [c * d + s for d, s in zip(den, lifted)]
    return num, den


def _e2_str(coeffs: list) -> str:
    """sum_i coeffs[i]*E^(2i), highest power first, zero terms dropped."""
    parts = []
    for i in reversed(range(len(coeffs))):
        if not coeffs[i]:
            continue
        cs = str(coeffs[i])
        if "+" in cs[1:] or "-" in cs[1:]:
            cs = f"({cs})"
        if i == 0:
            parts.append(cs)
        elif cs in ("1", "-1"):
            parts.append(f"{cs[:-1]}E^{2 * i}")
        else:
            parts.append(f"{cs}*E^{2 * i}")
    return " + ".join(parts).replace("+ -", "- ")


def _value_at(p: Poly, m: int, s: int, d: int) -> mpf:
    """P(m/2^s) at the working precision, exact up to its final rounding.

    Horner's rule runs in integers on A and on B, giving
    P = (U + V*sqrt(d))/(D*2^(s*deg)).  ``surd_to_mpf`` takes U + V*sqrt(d)
    through the conjugate where the parts would cancel, so coefficients far
    larger than the value (a slow front's, say) cost no digits.
    """
    a, b, den = p
    top = len(a) - 1
    u = v = 0
    # sum_i c_i*(m/2^s)^i = (sum_i c_i*m^i*2^(s*(top - i)))/2^(s*top)
    for i in range(top, -1, -1):
        u = u * m + (a[i] << s * (top - i))
        v = v * m + (b[i] << s * (top - i))
    return mpmath.ldexp(surd_to_mpf(u, v, d) / den, -s * top)


class SeriesTerm:
    """The series term v_k = c_k(x)*t^k of order k = ``order``, in closed form.

    ``coeffs`` are the sigma-coefficients of c_k, lowest power first and
    trailing zeros trimmed; ``sign`` (+1 upper branch, -1 lower) fixes
    sigma = E^2/(E^2 + 1) or 1/(E^2 + 1).  Its values come from
    ``HPMExpansion.profiles_at``.
    """

    def __init__(self, coeffs: tuple[QuadraticNumber, ...], order: int, sign: int) -> None:
        self.coeffs = coeffs
        self.order = order
        self.sign = sign

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeffs, self.order, self.sign) == (other.coeffs, other.order, other.sign)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        num, den = _closed_form(self.coeffs, self.sign)
        profile = f"({_e2_str(num)})"
        if len(den) > 1:
            profile += f"/({_e2_str(den)})"
        if self.order == 0:
            return profile
        if self.order == 1:
            return f"{profile} * t"
        return f"{profile} * t^{self.order}"


@lru_cache(maxsize=16)
def _operator_factors(problem: BHProblem) -> tuple[Poly, ...]:
    """1, the rate 2*sign*kappa of d(sigma)/dx and the coefficients
    -alpha/(n+1), beta*(1 + gamma), -beta*gamma and -beta of N, once per problem."""
    beta, gamma = problem.beta, problem.gamma
    return tuple(_lattice([f], problem.radicand) for f in (
        1, problem.kappa * (2 * problem.sign), problem.alpha * Fraction(-1, problem.n + 1),
        beta * (gamma + 1), -beta * gamma, -beta))


def _front(problem: BHProblem) -> Poly:
    """The initial front gamma*sigma: n = 1 only (for n >= 2 the front is its
    n-th root), and x0 = 0 only (x0 enters as the constant exp(kappa*x0))."""
    if problem.n != 1:
        raise UnsupportedProblemError(
            f"symbolic series requires n = 1 (got n = {problem.n}); "
            "the exact wave still evaluates numerically"
        )
    if not problem.x0.is_zero():
        raise UnsupportedProblemError("symbolic series requires x0 = 0")
    if problem.kappa.is_zero():
        raise UnsupportedProblemError("front steepness kappa is zero; no wave profile")
    return _lattice([ZERO, problem.gamma], problem.radicand)


class HPMExpansion:
    """The series through order K for one problem, held as ``powers``: the
    Taylor coefficients in t of u, u^2, .., u^(2n+1) through t^K.  The
    series of u is (c_0, .., c_K), from which ``terms`` are read and which
    ``profiles_at`` evaluates."""

    def __init__(self, problem: BHProblem, powers: tuple[Series, ...]) -> None:
        self.problem = problem
        self.powers = powers

    @classmethod
    def _seeded(cls, problem: BHProblem, c0: Poly) -> HPMExpansion:
        return cls(problem, _extended(((),) * (2 * problem.n + 1), c0, problem.radicand))

    @classmethod
    def start(cls, problem: BHProblem) -> HPMExpansion:
        """Start from the front gamma*sigma, i.e. the exact wave at t = 0."""
        return cls._seeded(problem, _front(problem))

    @classmethod
    def from_initial(cls, problem: BHProblem, value: ScalarLike) -> HPMExpansion:
        """Start from a constant profile, e.g. a steady state (any n)."""
        return cls._seeded(problem, _lattice([value], problem.radicand))

    @property
    def order(self) -> int:
        return len(self.powers[0]) - 1

    @property
    def terms(self) -> tuple[SeriesTerm, ...]:
        """v_0..v_K."""
        sign, d = self.problem.sign, self.problem.radicand
        return tuple(SeriesTerm(_coeffs(c, d), k, sign) for k, c in enumerate(self.powers[0]))

    def _operator(self, m: int) -> Poly:
        """t^m coefficient of N(u), from c_0..c_m and the cached powers."""
        n, d = self.problem.n, self.problem.radicand
        u, u_n1, u_2n1 = (self.powers[j][m] for j in (0, n, 2 * n))
        one, rate, alpha_n, beta_1, beta_g, beta_0 = _operator_factors(self.problem)
        return _sum_products(d, [
            (one, _dx(d, _dx(d, u, rate), rate)),
            (alpha_n, _dx(d, u_n1, rate)),  # -alpha*u^n*u_x
            (beta_1, u_n1),
            (beta_g, u),
            (beta_0, u_2n1),
        ])

    def advanced(self) -> HPMExpansion:
        """Expansion with the next term appended: c_k = N_(k-1)/k."""
        k = self.order + 1
        d = self.problem.radicand
        c_k = _sum_products(d, [(((1,), (0,), k), self._operator(k - 1))])  # N_(k-1)/k
        return HPMExpansion(self.problem, _extended(self.powers, c_k, d))

    def profiles_at(self, x, digits: int = DEFAULT_DIGITS) -> list[mpf]:
        """c_0(x)..c_K(x), each exact at one binary value sigma = m/2^s of
        sigma(x) = 1/(1 + exp(-/+2*kappa*x)), computed once for all of them.

        The smaller of sigma and 1 - sigma is rounded, so either tail keeps
        its digits.
        """
        problem = self.problem
        with working_dps(digits):
            z = -2 * problem.sign * to_mpf(problem.kappa) * to_mpf(x)
            man, exp = (1 / (1 + mpmath.exp(abs(z)))).man_exp
            m, s = man, -exp
            if z < 0:
                m = (1 << s) - m
            return [_value_at(c, m, s, problem.radicand) for c in self.powers[0]]

    def partial_sum_at(self, m: int, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
        """S_m(x, t) = c_0(x) + c_1(x)*t + .. + c_(m-1)(x)*t^(m-1)."""
        if not 1 <= m <= self.order + 1:
            raise ContractViolation(
                f"partial sum of {m} terms requested; have {self.order + 1}"
            )
        with working_dps(digits):
            time, total = to_mpf(t), mpf(0)
            for k, c in enumerate(self.profiles_at(x, digits)[:m]):
                total += c * time**k
            return +total


def run_hpm(problem: BHProblem, order: int) -> HPMExpansion:
    """Compute terms v_0..v_order exactly."""
    if order < 1:
        raise ContractViolation("order must be at least 1")
    expansion = HPMExpansion.start(problem)
    for _ in range(order):
        expansion = expansion.advanced()
    return expansion


def max_taylor_deviation(
    expansion: HPMExpansion, wave, xs, max_order: int | None = None,
    digits: int = DEFAULT_DIGITS,
) -> mpf:
    """Worst deviation of each v_k's t^k coefficient from the exact wave's
    time-Taylor coefficients over the sample points.

    Deviations are relative to the oracle coefficient; where the oracle is
    exactly zero (symmetry points) they are measured against the largest
    oracle coefficient at that x instead, so an exact structural zero on the
    symbolic side registers as zero deviation rather than 0/0.
    """
    if max_order is None:
        max_order = expansion.order
    if max_order > expansion.order:
        raise ContractViolation(
            f"expansion has order {expansion.order}, cannot check {max_order}"
        )
    with working_dps(digits):
        worst = mpf(0)
        for x in xs:
            oracle = wave.time_taylor_coefficients(x, max_order, digits)
            symbolic = expansion.profiles_at(x, digits)
            scale = max(abs(c) for c in oracle) or mpf(1)
            for k in range(1, max_order + 1):
                denom = abs(oracle[k]) if oracle[k] != 0 else scale
                worst = max(worst, abs(symbolic[k] - oracle[k]) / denom)
        return +worst
