"""Order-by-order construction of the perturbation series.

The solution is expanded as v = sum_k p^k v_k in an embedding parameter p.
The zeroth term is the initial profile (time-independent), and each later
term solves  dv_k/dt = [p^(k-1) coefficient of N(v)]  with v_k(x, 0) = 0,
where N(v) = v_xx - alpha*v^n*v_x + beta*((1+gamma)*v^(n+1) - gamma*v -
v^(2n+1)).  With v_0 time-independent this is the time-Taylor series of the
solution: v_k = c_k(x)*t^k with k*c_k = [t^(k-1)] N(u).

Each c_k is a dense polynomial over Q(sqrt(d)) in the logistic variable
sigma = E^2/(E^2 + 1), E = exp(kappa*(x + x0)) (1/(E^2 + 1) on the lower
branch), so d/dx P(sigma) = +/-2*kappa*delta(P) with the integer map
delta(P) = sigma*(1 - sigma)*P'(sigma): derivatives need no denominators.
The Taylor coefficients of u^2..u^(2n+1) gain one term per order (Griewank &
Walther, Evaluating Derivatives, ch. 13), u^2's by symmetry, and c_k is one
linear combination, so order k costs 2n + 1 sums of O(k) products of
polynomials of degree O(k): O(k^3) integer multiplications.

Such a polynomial is held as an integer triple (A, B, D), coefficient i
being (A[i] + B[i]*sqrt(d))/D for the problem's radicand d, so the step runs
on Python ints, skips every product with an all-zero sqrt(d) half (all of
presets 1 and 2) and reduces each result by one gcd.  ``QuadraticNumber``
stays at the boundaries: the problem's constants are lifted to integers
once per problem (``_lattice``), so a series builds no ``QuadraticNumber``
or ``Fraction``, and a ``SeriesTerm``'s coefficients come out (``_coeffs``)
to print as the closed form N(E^2)/(E^2 + 1)^deg.  Numbers come from
``profiles_at`` alone: it rounds sigma = 1/(1 + exp(-/+2*kappa*(x + x0)))
once per point to a binary value and runs Horner's rule on A and B there.
The published closed forms serve as test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
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
    """The sigma-polynomial with these exact coefficients, lowest power first,
    lifted by integer numerators and denominators (no Fraction arithmetic)."""
    qs = [QuadraticNumber.coerce(c) for c in coeffs]
    if any(q.radicand not in (0, d) for q in qs):
        raise AlgebraDomainError(f"a coefficient is not in Q(sqrt({d})): {qs}")
    den = math.lcm(*[f.denominator for q in qs for f in (q.rational, q.radical)])
    return _reduced([q.rational.numerator * (den // q.rational.denominator) for q in qs],
                    [q.radical.numerator * (den // q.radical.denominator) for q in qs], den)


def _coeffs(p: Poly, d: int) -> tuple[QuadraticNumber, ...]:
    """The exact coefficients of P, lowest power first."""
    a, b, den = p
    return tuple(QuadraticNumber(Fraction(x, den), Fraction(y, den), d) for x, y in zip(a, b))


def _sum_products(d: int, pairs: Iterable[tuple[Poly, Poly]], den: int = 1,
                  weights: Iterable[int] = repeat(1)) -> Poly:
    """sum(w * P * Q)/den over the pairs (integer weight w, 1 by default) on
    their common denominator, with (x + y*sqrt(d))(u + v*sqrt(d)) = xu + yv*d
    + (xv + yu)*sqrt(d), skipping zero x, y and an all-zero B of Q.  One pair
    gives the product; pairs (f, P) with f of degree 0, a linear combination."""
    kept, common, size = [], 1, 0
    for (p, q), w in zip(pairs, weights):
        if p[0] and q[0]:
            kept.append((p, q, w))
            common = math.lcm(common, p[2] * q[2])
            size = max(size, len(p[0]) + len(q[0]) - 1)
    a, b = [0] * size, [0] * size
    for (pa, pb, pd), (qa, qb, qd), w in kept:
        s = common // (pd * qd) * w
        # x*u to A and y*u to B; then, unless Q's B is all zero, x*v to B and y*v*d to A
        for q, x_to, y_to, y_scale in [(qa, a, b, s), (qb, b, a, s * d)][:1 + any(qb)]:
            for i, (x, y) in enumerate(zip(pa, pb)):
                if x:
                    x *= s
                    for j, u in enumerate(q, i):
                        x_to[j] += x * u
                if y:
                    y *= y_scale
                    for j, u in enumerate(q, i):
                        y_to[j] += y * u
    return _reduced(a, b, common * den)


def _delta(p: Poly) -> Poly:
    """sigma*(1 - sigma)*P'(sigma) = sum_i (i*p_i - (i-1)*p_(i-1)) sigma^i, unreduced
    (a factor for _sum_products), so d/dx P(sigma) = rate*delta(P); an all-zero
    half stays all zero."""
    *halves, den = p
    return (*[[i * x - (i - 1) * y for i, (x, y) in enumerate(zip([*c, 0], [0, *c]))]
              if any(c) else [0] * (len(c) + 1) for c in halves], den)


def _extended(powers: tuple[Series, ...], c: Poly, d: int) -> tuple[Series, ...]:
    """Append c_m to the series of u, then (u^j)_m = sum_i (u^(j-1))_i * c_(m-i)
    to the series of u^2, u^3, ... in turn; (u^2)_m = 2*sum_(i<m-i) u_i*u_(m-i)
    + u_(m/2)^2 by symmetry."""
    u = powers[0] + (c,)
    h = len(u) // 2
    # weight 2 for the h pairs i < m - i; zip drops the final 1 when m is odd
    square = _sum_products(d, zip(u[:h + len(u) % 2], reversed(u)), weights=[2] * h + [1])
    extended = [u, powers[1] + (square,)]
    for power in powers[2:]:
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
    sigma = E^2/(E^2 + 1) or 1/(E^2 + 1), E = exp(kappa*(x + x0)).  Its
    values come from ``HPMExpansion.profiles_at``.
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


@lru_cache(maxsize=8)
def _operator_factors(problem: BHProblem) -> tuple[Poly, ...]:
    """The constants of N(u) = rate^2*delta(delta(u)) - alpha*rate*delta(u^(n+1))/(n+1)
    + beta*(1 + gamma)*u^(n+1) - beta*gamma*u - beta*u^(2n+1), in that order, where
    rate = 2*sign*kappa is the d(sigma)/dx = rate*sigma*(1 - sigma) of the front,
    as degree-0 products of the lifted kappa, alpha, beta and gamma; formed once
    per problem, not once per step."""
    d, one = problem.radicand, ((1,), (0,), 1)
    kappa, alpha, beta, gamma = (_lattice([c], d) for c in (
        problem.kappa, problem.alpha, problem.beta, problem.gamma))
    rate = _sum_products(d, [(one, kappa)], weights=[2 * problem.sign])
    return (_sum_products(d, [(rate, rate)]),
            _sum_products(d, [(alpha, rate)], problem.n + 1, weights=[-1]),
            _sum_products(d, [(beta, one), (beta, gamma)]),
            _sum_products(d, [(beta, gamma)], weights=[-1]),
            _sum_products(d, [(beta, one)], weights=[-1]))


def _front(problem: BHProblem) -> Poly:
    """The initial front gamma*sigma: n = 1 only (for n >= 2 the front is its
    n-th root).  Any shift x0 lies in sigma's argument x + x0, so the series
    algebra is that of x0 = 0."""
    if problem.n != 1:
        raise UnsupportedProblemError(
            f"symbolic series requires n = 1 (got n = {problem.n}); "
            "the exact wave still evaluates numerically"
        )
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
    def start(cls, problem: BHProblem) -> HPMExpansion:
        """Start from the front gamma*sigma, i.e. the exact wave at t = 0."""
        return cls(problem, _extended(((),) * (2 * problem.n + 1), _front(problem),
                                      problem.radicand))

    @property
    def order(self) -> int:
        return len(self.powers[0]) - 1

    @property
    def terms(self) -> tuple[SeriesTerm, ...]:
        """v_0..v_K."""
        sign, d = self.problem.sign, self.problem.radicand
        return tuple(SeriesTerm(_coeffs(c, d), k, sign) for k, c in enumerate(self.powers[0]))

    def advanced(self) -> HPMExpansion:
        """Expansion with the next term appended: c_k = N_(k-1)/k, one sum of
        products with u_xx = rate^2*delta(delta(u)) and
        u^n*u_x = rate*delta(u^(n+1))/(n+1)."""
        n, d = self.problem.n, self.problem.radicand
        factors = _operator_factors(self.problem)
        u, u_n1, u_2n1 = (self.powers[j][-1] for j in (0, n, 2 * n))
        terms = (_delta(_delta(u)), _delta(u_n1), u_n1, u, u_2n1)  # in the order of factors
        return HPMExpansion(self.problem, _extended(
            self.powers, _sum_products(d, zip(factors, terms), self.order + 1), d))

    def profiles_at(self, x, digits: int = DEFAULT_DIGITS) -> list[mpf]:
        """c_0(x)..c_K(x), each exact at one binary value sigma = m/2^s of
        sigma = 1/(1 + exp(-/+2*kappa*(x + x0))), computed once for all of them.

        The smaller of sigma and 1 - sigma is rounded, so either tail keeps
        its digits.
        """
        problem = self.problem
        with working_dps(digits):
            arg = to_mpf(x) + to_mpf(problem.x0) if problem.x0 else to_mpf(x)  # no surd at x0 = 0
            z = -2 * problem.sign * to_mpf(problem.kappa) * arg
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


def max_taylor_deviation(expansion: HPMExpansion, wave, xs,
                         digits: int = DEFAULT_DIGITS) -> mpf:
    """Worst deviation of each v_k's t^k coefficient (k = 1..K) from the exact
    wave's time-Taylor coefficients over the sample points.

    Deviations are relative to the oracle coefficient; where the oracle is
    exactly zero (symmetry points) they are measured against the largest
    oracle coefficient at that x instead, so an exact structural zero on the
    symbolic side registers as zero deviation rather than 0/0.
    """
    order = expansion.order
    with working_dps(digits):
        worst = mpf(0)
        for x in xs:
            oracle = wave.time_taylor_coefficients(x, order, digits)
            symbolic = expansion.profiles_at(x, digits)
            scale = max(abs(c) for c in oracle) or mpf(1)
            for k in range(1, order + 1):
                denom = abs(oracle[k]) if oracle[k] != 0 else scale
                worst = max(worst, abs(symbolic[k] - oracle[k]) / denom)
        return +worst
