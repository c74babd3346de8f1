"""Order-by-order construction of the perturbation series.

The solution is expanded as v = sum_k p^k v_k in an embedding parameter p.
The zeroth term is the initial profile (time-independent), and each later
term solves  dv_k/dt = [p^(k-1) coefficient of N(v)]  with v_k(x, 0) = 0,
where N(v) = v_xx - alpha*v^n*v_x + beta*((1+gamma)*v^(n+1) - gamma*v -
v^(2n+1)).  With v_0 time-independent this is the time-Taylor series of the
solution: v_k = c_k(x)*t^k with k*c_k = [t^(k-1)] N(u).

Each c_k is a dense polynomial over Q(sqrt(d)) in the logistic variable
sigma = 1/(1 + exp(-rate*(x + x0))), rate = 2*s*kappa with branch sign s,
so d/dx P(sigma) = rate*delta(P) with the integer map
delta(P) = sigma*(1 - sigma)*P'(sigma): derivatives need no denominators, and
u_xx = rate^2*delta^2(u) is one integer map too.
The engine takes n = 1, so N holds u, u^2 and u^3.  An expansion holds
c_0..c_K alone; the Taylor coefficients of u^2 are formed from them on demand
(Griewank & Walther, Evaluating Derivatives, ch. 13): the step to c_k forms
(u^2)_(k-1) by symmetry, and c_k is one sum of products that takes those of
(u^3)_(k-1) = sum_i (u^2)_i*u_(k-1-i) unreduced, with each -beta*(u^2)_i scaled
once and kept for the later orders: order k costs two sums of O(k) products of
degree-O(k) polynomials, O(k^3) multiplications, each sum one pass over its pairs.

All coefficients of such a polynomial lie on one line of Q(sqrt(d)), as c_k =
gamma*(-speed*rate)^k*delta^k(sigma)/k! shows, so it is held as (a, b, den, q):
a content (a + b*sqrt(d))/den times an integer list q.  The step runs on Python
ints and reduces each result by one gcd; a product that feeds only the rational or
only the sqrt(d) sum (every one on presets 1 and 2) is convolved, each row scaled
once, straight into it.  On a surd front every real product of one order's sums
feeds both, and all their contents lie on one line (da, db) of Q(sqrt(d)): each is
convolved the same way into a third sum, which is added to the two halves once, at
the end of the sum.  N's constants are field products lifted once per problem
(``_lattice``), and the square's 2 doubles a content, so the kernel only multiplies
pairs and a step builds no ``QuadraticNumber`` or ``Fraction``.
``terms`` prints each c_k by Horner's rule on q (``_term_text``); ``_values_at``,
the only route to numbers, rounds sigma once per point to a binary value, runs
Horner's rule on q there and returns raw libmp values, which ``profiles_at``
makes mpf objects and ``partial_sum_at`` and ``build_error_table`` sum raw, both
by ``scalars.running_sums``.
The published closed forms serve as test oracles.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Iterable

import mpmath
from mpmath import mpf
from mpmath.libmp import fone, mpf_abs, mpf_add, mpf_exp, mpf_mul, mpf_pow_int
from mpmath.libmp import mpf_rdiv_int, mpf_sign

from .errors import AlgebraDomainError, ContractViolation, UnsupportedProblemError
from .problem import BHProblem
from .scalars import (
    DEFAULT_DIGITS, RND, ZERO, QuadraticNumber, ScalarLike, running_sums, surd_value, to_value,
    working_dps,
)
from .waves import TravelingWave

#: A sigma-polynomial (a, b, den, q), coefficient i = (a + b*sqrt(d))*q[i]/den,
#: lowest power first; canonical (q primitive with q[-1] > 0, den >= 1,
#: gcd(a, b, den) = 1), so equal polynomials are equal tuples.
Poly = tuple[int, int, int, tuple[int, ...]]
#: Taylor coefficients in t of one function, as sigma-polynomials.
Series = tuple[Poly, ...]

ZERO_POLY: Poly = (0, 0, 1, ())
#: The largest s of a point's sigma or 1 - sigma = m/2^s: Horner's rule there
#: builds (deg*s)-bit integers.  Case 1 reaches it at |x| of about 1.03e6.
MAX_SHIFT = 1 << 20


def _reduced(a: list[int], b: list[int], den: int) -> Poly:
    """The canonical form of sum_i (a[i] + b[i]*sqrt(d))/den * sigma^i, whose
    coefficients must lie on one line of Q(sqrt(d)): a = x*q and b = y*q."""
    while a and not (a[-1] or b[-1]):
        a.pop()
        b.pop()
    if not a:
        return ZERO_POLY
    half, other = (a, b) if a[-1] else (b, a)
    g = math.gcd(*half) if half[-1] > 0 else -math.gcd(*half)
    q = [c // g for c in half]  # half = g*q by construction: only the other half is checked
    z = other[-1] // q[-1]
    if [z * c for c in q] != other if z else any(other):
        raise ContractViolation("a sum of sigma-polynomials leaves its line in Q(sqrt(d))")
    x, y = (g, z) if half is a else (z, g)
    h = math.gcd(x, y, den)
    return x // h, y // h, den // h, tuple(q)


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
    a, b, den, q = p
    return tuple(QuadraticNumber(Fraction(a * c, den), Fraction(b * c, den), d) for c in q)


def _sum_products(d: int, pairs: Iterable[tuple[Poly, Poly]], den: int = 1) -> Poly:
    """sum(P * Q)/den over the pairs, over the common denominator.  One pass: each pair
    is scaled to the running denominator (what is summed is rescaled only when a pair's
    denominator does not divide it) and sized, the sums growing as longer products
    arrive.  A pair whose content product scales only one of the rational and sqrt(d)
    sums convolves each row of P, scaled once, straight into that sum.  One that scales
    both, with rows to convolve, lies on the sum's line (da, db) when its scales are an
    integer multiple of it; the first such pair sets the line to its scales over their
    gcd, and each one on it is convolved the same way into a third sum, ``line``, which
    adds da*line and db*line to the two sums once at the end.  Any other such pair is
    convolved the same way into each of the two sums.  A degree-0 P (its list being (1,))
    that scales both adds Q's list to both in one pass; a pair that scales neither is
    skipped.  Degree-0 P's: a linear combination.  Contents need not be reduced."""
    a, b, line, common = [], [], [], 1
    da = db = 0
    for (x, y, pd, pq), (u, v, qd, qq) in pairs:
        if not (pq and qq):
            continue
        pair_den = pd * qd
        if common % pair_den:
            grow = pair_den // math.gcd(common, pair_den)
            common *= grow
            if a:  # empty until the first pair is summed
                a, b, line = [c * grow for c in a], [c * grow for c in b], [c * grow for c in line]
        s = common // pair_den
        sa, sb = (x * u + y * v * d) * s, (x * v + y * u) * s
        if len(pq) > len(qq):  # the shorter list gives the rows; the contents commute
            pq, qq = qq, pq
        size = len(pq) + len(qq) - 1
        if size > len(a):
            a += [0] * (size - len(a))
            b += [0] * (size - len(b))
        if sa and sb:
            if len(pq) == 1:  # a degree-0 factor: Q's list is the product
                for j, c in enumerate(qq):
                    a[j] += sa * c
                    b[j] += sb * c
                continue
            if not da:  # the sum's first real product sets its line
                g = math.gcd(sa, sb)
                da, db = sa // g, sb // g
            if sa * db == sb * da:
                if size > len(line):
                    line += [0] * (size - len(line))
                total, scale = line, sa // da  # exact: (da, db) is primitive
            else:  # off the line: the rational half, then the sqrt(d) half
                total, scale = a, sa
        elif sa or sb:
            total, scale = (a, sa) if sa else (b, sb)
        else:
            continue
        while True:
            for i, c in enumerate(pq):
                if c:
                    c *= scale
                    for j, e in enumerate(qq, i):
                        total[j] += c * e
            if total is not a or not sb:
                break
            total, scale = b, sb
    for j, c in enumerate(line):
        a[j] += da * c
        b[j] += db * c
    return _reduced(a, b, common * den)


def _delta(p: Poly) -> Poly:
    """sigma*(1 - sigma)*P'(sigma): P's content times sum_i (i*q_i - (i-1)*q_(i-1)) sigma^i,
    unreduced (a factor for _sum_products), so d/dx P(sigma) = rate*delta(P)."""
    *content, q = p
    z = [0, *q, 0]  # z[i + 1] = q_i, zero outside 0..deg
    return (*content, [i * z[i + 1] - (i - 1) * z[i] for i in range(len(q) + 1)])


def _delta2(p: Poly) -> Poly:
    """delta(delta(P)) as one integer map, unreduced: P's content times
    sum_i (i^2*q_i - (i-1)*(2i-1)*q_(i-1) + (i-1)*(i-2)*q_(i-2)) sigma^i."""
    *content, q = p
    z = [0, 0, *q, 0, 0]  # z[i + 2] = q_i, zero outside 0..deg
    return (*content, [i * i * z[i + 2] - (i - 1) * (2 * i - 1) * z[i + 1]
                       + (i - 1) * (i - 2) * z[i] for i in range(len(q) + 2)])


def _square(u: Series, d: int) -> Poly:
    """(u^2)_m = sum_(i<m-i) 2*u_i*u_(m-i) + u_(m/2)^2, m = len(u) - 1, by symmetry:
    the 2 doubles u_i's content, left unreduced."""
    h = len(u) // 2
    twice = [((2 * a, 2 * b, den, q), w) for (a, b, den, q), w in zip(u[:h], reversed(u))]
    return _sum_products(d, twice + [(u[h], u[h])] * (len(u) % 2))


def _closed_form(p: Poly, d: int, sign: int) -> tuple[tuple[QuadraticNumber, ...], list[int]]:
    """Coefficients of N and D, in powers of E^2, with P(sigma) = N/D and
    D = (E^2 + 1)^deg(P), for a nonzero P over radicand d.

    Horner's rule on q for sigma = S/(E^2 + 1), S = E^2 on the upper
    branch and 1 on the lower: c + sigma*N/D = (c*D*(E^2 + 1) + S*N)/(D*(E^2 + 1)).
    At E^2 = -1 only the leading coefficient survives, N(-1) = (-1)^deg*p_deg
    (upper) or p_deg (lower), so N/D is in lowest terms.
    """
    *content, q = p
    num, binom = [q[-1]], [1]
    for c in reversed(q[:-1]):
        binom = [i + j for i, j in zip(binom + [0], [0] + binom)]
        num = [c * k + s for k, s in zip(binom, [0] + num if sign > 0 else num + [0])]
    return _coeffs((*content, num), d), binom


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


def _term_text(p: Poly, d: int, order: int, sign: int) -> str:
    """The series term v_k = c_k(x)*t^k of order k = ``order`` in closed form:
    c_k = P(sigma) over radicand d, sigma = E^2/(E^2 + 1) (``sign`` +1, the
    upper branch) or 1/(E^2 + 1) (-1), printed as N(E^2)/(E^2 + 1)^deg."""
    if not p[3]:
        return "0"
    num, den = _closed_form(p, d, sign)
    profile = f"({_e2_str(num)})"
    if len(den) > 1:
        profile += f"/({_e2_str(den)})"
    return profile + ("" if order == 0 else " * t" if order == 1 else f" * t^{order}")


def _value_at(p: Poly, m: int, s: int, d: int) -> tuple:
    """P(sigma) at sigma = m/2^s, or 1 + m/2^s for m < 0, as a raw value at the
    working precision, exact up to its final rounding.

    Horner's rule runs in integers on q, giving P = (a + b*sqrt(d))*U/(den*2^(s*deg));
    at m < 0 a step multiplies by 2^s + m as one shift and one short product, so
    sigma near 1 costs what sigma near 0 does.  ``surd_value`` takes (a + b*sqrt(d))*U
    through the conjugate where the parts would cancel, squaring U once, so
    coefficients far larger than the value (a slow front's, say) cost no digits;
    den and 2^(s*deg) are one division.
    """
    a, b, den, q = p
    top = len(q) - 1
    u = 0
    # sum_i q_i*(m/2^s)^i = (sum_i q_i*m^i*2^(s*(top - i)))/2^(s*top)
    if m >= 0:
        for i in range(top, -1, -1):
            u = u * m + (q[i] << s * (top - i))
    else:
        for i in range(top, -1, -1):
            u = (u << s) + u * m + (q[i] << s * (top - i))
    return surd_value(a, b, d, den, u, s * top)


def _n_one(problem: BHProblem) -> None:
    """Reject n >= 2: the front gamma*sigma and N's constants are those of n = 1."""
    if problem.n != 1:
        raise UnsupportedProblemError(f"symbolic series requires n = 1 (got n = {problem.n}); "
                                      "the exact wave still evaluates numerically")


@lru_cache(maxsize=8)
def _operator_factors(problem: BHProblem) -> tuple[Poly, ...]:
    """The constants of N(u) = rate^2*delta(delta(u)) - alpha*rate*delta(u^2)/2
    + beta*(1 + gamma)*u^2 - beta*gamma*u - beta*u^3 (n = 1), in that order: field
    products, each lifted to a degree-0 sigma-polynomial once per problem."""
    _n_one(problem)
    rate, alpha, beta, gamma = problem.rate, problem.alpha, problem.beta, problem.gamma
    return tuple(_lattice([c], problem.radicand) for c in (
        rate * rate, -rate * alpha * Fraction(1, 2), beta * (1 + gamma), -beta * gamma, -beta))


def _front(problem: BHProblem) -> Poly:
    """The initial front gamma*sigma (for n >= 2 the front is its n-th root).  Any
    shift x0 lies in sigma's argument x + x0, so the series algebra is that of x0 = 0."""
    _n_one(problem)
    if problem.rate.is_zero():
        raise UnsupportedProblemError("front steepness kappa is zero; no wave profile")
    return _lattice([ZERO, problem.gamma], problem.radicand)


class HPMExpansion:
    """The series c_0..c_K of u in t for one problem, from which ``terms`` are
    read and which ``profiles_at`` evaluates.  A step reads -beta*(u^2)_i for
    i <= K; it forms from the series each one it lacks and keeps them all,
    unreduced, for the next step: a started expansion lacks only (u^2)_K, one
    built from a series all K + 1."""

    _scaled: tuple[Poly, ...] = ()

    def __init__(self, problem: BHProblem, series: Series) -> None:
        self.problem, self.series = problem, series

    @classmethod
    def start(cls, problem: BHProblem) -> HPMExpansion:
        """Start from the front gamma*sigma, i.e. the exact wave at t = 0."""
        return cls(problem, (_front(problem),))

    @property
    def order(self) -> int:
        return len(self.series) - 1

    @property
    def terms(self) -> tuple[str, ...]:
        """v_0..v_K in closed form, as text."""
        sign, d = self.problem.sign, self.problem.radicand
        return tuple(_term_text(c, d, k, sign) for k, c in enumerate(self.series))

    def advanced(self) -> HPMExpansion:
        """Expansion with the next term appended: (u^2)_K, then c_(K+1) = N_K/(K + 1),
        one sum of products with u_xx = rate^2*delta^2(u), delta^2 one integer map, and
        u*u_x = rate*delta(u^2)/2, in which -beta*(u^3)_K enters as the pairs
        (-beta*(u^2)_i, u_(K-i)): each -beta*(u^2)_i is scaled once, then kept."""
        d, u, scaled = self.problem.radicand, self.series, self._scaled
        *factors, (x, y, z, _) = _operator_factors(self.problem)
        while len(scaled) < len(u):  # the last square formed is (u^2)_K
            a, b, e, q = square = _square(u[:len(scaled) + 1], d)
            scaled += ((x * a + y * b * d, x * b + y * a, z * e, q),)
        # in the order of factors
        terms = (_delta2(u[-1]), _delta(square), square, u[-1])
        pairs = [*zip(factors, terms), *zip(scaled, reversed(u))]
        expansion = HPMExpansion(self.problem, u + (_sum_products(d, pairs, self.order + 1),))
        expansion._scaled = scaled
        return expansion

    def profiles_at(self, x, digits: int = DEFAULT_DIGITS) -> list[mpf]:
        """c_0(x)..c_K(x), each exact at one binary value sigma = m/2^s of
        sigma = 1/(1 + exp(-rate*(x + x0))), computed once for all of them.

        The smaller of sigma and 1 - sigma is rounded, so either tail keeps
        its digits.  A point whose s exceeds ``MAX_SHIFT`` is rejected.
        """
        with working_dps(digits):
            return [mpmath.mp.make_mpf(v) for v in self._values_at(to_value(x))]

    def _values_at(self, x: tuple) -> list[tuple]:
        """``profiles_at`` as raw values at the working precision, for x as a raw value."""
        p, prec = self.problem, mpmath.mp.prec
        arg = mpf_add(x, to_value(p.x0), prec, RND) if p.x0 else x  # no surd at x0 = 0
        z = mpf_mul(to_value(p.rate), arg, prec, RND)
        growth = mpf_exp(mpf_abs(z, prec, RND), prec, RND)
        _, man, exp, _ = mpf_rdiv_int(1, mpf_add(growth, fone, prec, RND), prec, RND)
        m, s = man, -exp
        if s > MAX_SHIFT:
            raise UnsupportedProblemError(
                f"x + x0 = {mpmath.nstr(mpmath.mp.make_mpf(arg), 10)} lies too far in the "
                f"front's tail: sigma or 1 - sigma is about 2^-{s}, past the bound 2^-{MAX_SHIFT}"
            )
        if mpf_sign(z) > 0:  # sigma = 1 - m/2^s
            m = -m
        return [_value_at(c, m, s, p.radicand) for c in self.series]

    def partial_sum_at(self, m: int, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
        """S_m(x, t) = c_0(x) + c_1(x)*t + .. + c_(m-1)(x)*t^(m-1)."""
        if not 1 <= m <= self.order + 1:
            raise ContractViolation(
                f"partial sum of {m} terms requested; have {self.order + 1}"
            )
        with working_dps(digits):
            prec, time = mpmath.mp.prec, to_value(t)
            powers = [mpf_pow_int(time, k, prec, RND) for k in range(m)]
            return mpmath.mp.make_mpf(running_sums(self._values_at(to_value(x)), powers, prec)[-1])


def run_hpm(problem: BHProblem, order: int) -> HPMExpansion:
    """Compute terms v_0..v_order exactly."""
    if order < 1:
        raise ContractViolation("order must be at least 1")
    expansion = HPMExpansion.start(problem)
    for _ in range(order):
        expansion = expansion.advanced()
    return expansion


def max_taylor_deviation(expansion: HPMExpansion, xs, digits: int = DEFAULT_DIGITS) -> mpf:
    """Worst deviation of each v_k's t^k coefficient (k = 1..K) from the
    time-Taylor coefficients of the exact wave of the expansion's own problem
    over the sample points.

    Deviations are relative to the oracle coefficient; where the oracle is
    exactly zero (symmetry points) they are measured against the largest
    oracle coefficient at that x instead, so an exact structural zero on the
    symbolic side registers as zero deviation rather than 0/0.
    """
    order, wave = expansion.order, TravelingWave(expansion.problem)
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
