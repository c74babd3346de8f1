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
Each v_k is returned as a TimePolynomial holding the ExpRational closed form
of c_k; the published closed forms serve as test oracles.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mpf

from .errors import ContractViolation, UnsupportedProblemError
from .expalgebra import CoefficientLike, ExpRational, LaurentPoly, to_mpf
from .problem import BHProblem
from .scalars import DEFAULT_DIGITS, ZERO, QuadraticNumber, working_dps

#: Dense polynomial in sigma, lowest power first, trailing zeros trimmed.
Poly = tuple[QuadraticNumber, ...]
#: Taylor coefficients in t of one function, as sigma-polynomials.
Series = tuple[Poly, ...]


class TimePolynomial:
    """Polynomial in t with ExpRational coefficients, trailing zeros trimmed."""

    __slots__ = ("coeffs", "kappa")

    def __init__(self, coeffs: list[ExpRational] | tuple[ExpRational, ...], kappa: QuadraticNumber) -> None:
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero:
            coeffs.pop()
        for c in coeffs:
            if c.kappa != kappa:
                raise ContractViolation("coefficient rate differs from the polynomial's")
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "kappa", kappa)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("TimePolynomial values are immutable")

    @classmethod
    def zero(cls, kappa: QuadraticNumber) -> TimePolynomial:
        return cls((), kappa)

    @property
    def degree(self) -> int:
        """Degree in t; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, j: int) -> ExpRational:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return ExpRational.zero(self.kappa)

    def __add__(self, other: TimePolynomial) -> TimePolynomial:
        if not isinstance(other, TimePolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        merged = list(a)
        for j, c in enumerate(b):
            merged[j] = merged[j] + c
        return TimePolynomial(merged, self.kappa)

    def scaled(self, factor: CoefficientLike) -> TimePolynomial:
        return TimePolynomial([c.scaled(factor) for c in self.coeffs], self.kappa)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TimePolynomial):
            return self.kappa == other.kappa and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.coeffs, self.kappa))

    def eval_at(self, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
        with working_dps(digits):
            tv = to_mpf(t)
            total = mpf(0)
            power = mpf(1)
            for c in self.coeffs:
                if not c.is_zero:
                    total += c.eval_at(x, digits) * power
                power *= tv
            return +total

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for j, c in enumerate(self.coeffs):
            if c.is_zero:
                continue
            if j == 0:
                parts.append(str(c))
            elif j == 1:
                parts.append(f"{c} * t")
            else:
                parts.append(f"{c} * t^{j}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"TimePolynomial({list(self.coeffs)!r})"


def _trim(p: list[QuadraticNumber]) -> Poly:
    while p and p[-1].is_zero():
        p.pop()
    return tuple(p)


def _combine(*terms: tuple[CoefficientLike, Poly]) -> Poly:
    """Linear combination sum(f * P) of sigma-polynomials."""
    out = [ZERO] * max(len(p) for _, p in terms)
    for f, p in terms:
        for i, c in enumerate(p):
            out[i] = out[i] + c * f
    return _trim(out)


def _dx(p: Poly, rate: QuadraticNumber) -> Poly:
    """d/dx of P(sigma), where d(sigma)/dx = rate*sigma*(1 - sigma):
    sigma*(1 - sigma)*P'(sigma) = sum_i (i*p_i - (i-1)*p_(i-1)) sigma^i."""
    pairs = zip(p + (ZERO,), (ZERO,) + p)
    return _trim([rate * (i * a - (i - 1) * b) for i, (a, b) in enumerate(pairs)])


def _extended(powers: tuple[Series, ...], c: Poly) -> tuple[Series, ...]:
    """Append c_m to the series of u, then (u^j)_m = sum_i (u^(j-1))_i * c_(m-i)
    to the series of u^2, u^3, ... in turn."""
    u = powers[0] + (c,)
    extended = [u]
    for power in powers[1:]:
        out: list[QuadraticNumber] = []
        for p, q in zip(extended[-1], reversed(u)):
            out.extend([ZERO] * (len(p) + len(q) - 1 - len(out)))
            for i, x in enumerate(p):
                if x:
                    for j, y in enumerate(q):
                        out[i + j] = out[i + j] + x * y
        extended.append(power + (_trim(out),))
    return tuple(extended)


def _term(problem: BHProblem, p: Poly, k: int) -> TimePolynomial:
    """P(sigma)*t^k, with P(sigma) in closed form N(E^2)/(E^2 + 1)^deg(P).

    Horner's rule on sigma = S/(E^2 + 1), S = E^2 on the upper branch and 1
    on the lower: c + sigma*N/D = (c*D*(E^2 + 1) + S*N)/(D*(E^2 + 1)).
    """
    kappa = problem.kappa
    if not p:
        return TimePolynomial.zero(kappa)
    one_plus = LaurentPoly({0: 1, 2: 1})
    lift = LaurentPoly.monomial(2 if problem.sign > 0 else 0)
    num, den = LaurentPoly({0: p[-1]}), LaurentPoly.one()
    for c in reversed(p[:-1]):
        den = den * one_plus
        num = den.scaled(c) + lift * num
    profile = ExpRational(num, den, kappa)
    return TimePolynomial([ExpRational.zero(kappa)] * k + [profile], kappa)


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
    return (ZERO, problem.gamma)


def initial_guess(problem: BHProblem) -> ExpRational:
    """Initial profile u(x, 0) as an ExpRational.

    upper branch: gamma*E/(E + 1/E), lower branch: gamma/E/(E + 1/E), with
    E = exp(kappa*x).
    """
    return _term(problem, _front(problem), 0).coefficient(0)


class HPMExpansion:
    """Computed series terms v_0..v_K for one problem, with ``powers``, the
    series of u, u^2, .., u^(2n+1) through t^K.  Built from explicit terms
    (no powers), an expansion evaluates but cannot be advanced."""

    __slots__ = ("problem", "terms", "powers")

    def __init__(self, problem: BHProblem, terms: tuple[TimePolynomial, ...],
                 powers: tuple[Series, ...] | None = None) -> None:
        if not terms:
            raise ContractViolation("an expansion needs at least the order-0 term")
        object.__setattr__(self, "problem", problem)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "powers", powers)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HPMExpansion values are immutable")

    @classmethod
    def _seeded(cls, problem: BHProblem, c0: Poly) -> HPMExpansion:
        powers = _extended(((),) * (2 * problem.n + 1), c0)
        return cls(problem, (_term(problem, c0, 0),), powers)

    @classmethod
    def start(cls, problem: BHProblem) -> HPMExpansion:
        return cls._seeded(problem, _front(problem))

    @classmethod
    def from_initial(cls, problem: BHProblem, v0: ExpRational) -> HPMExpansion:
        """Start from a constant profile, e.g. a steady state."""
        if not v0.is_constant():
            raise UnsupportedProblemError("the series starts only from the front or a constant")
        return cls._seeded(problem, _trim([v0.num.coeff(0)]))

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    def _operator(self, m: int) -> Poly:
        """t^m coefficient of N(u), from c_0..c_m and the cached powers."""
        if self.powers is None:
            raise ContractViolation("an expansion built from explicit terms cannot be advanced")
        problem, n = self.problem, self.problem.n
        u, u_n1, u_2n1 = (self.powers[j][m] for j in (0, n, 2 * n))
        rate, beta = problem.kappa * (2 * problem.sign), problem.beta
        return _combine(
            (1, _dx(_dx(u, rate), rate)),
            (problem.alpha * Fraction(-1, n + 1), _dx(u_n1, rate)),  # -alpha*u^n*u_x
            (beta * (problem.gamma + 1), u_n1),
            (-beta * problem.gamma, u),
            (-beta, u_2n1),
        )

    def rhs_order(self, k: int) -> TimePolynomial:
        """Right-hand side of the order-k equation dv_k/dt = RHS_k.

        This is the p^(k-1) coefficient of the spatial operator applied to
        the series, k*c_k*t^(k-1); the time derivative of the order-0
        profile, formally subtracted at k = 1, vanishes because v_0 is
        time-independent.
        """
        if k < 1:
            raise ContractViolation("order 0 is the initial profile, not an RHS")
        if k > len(self.terms):
            raise ContractViolation(
                f"rhs_order({k}) needs terms v_0..v_{k - 1}; have {len(self.terms)}"
            )
        return _term(self.problem, self._operator(k - 1), k - 1)

    def advanced(self) -> HPMExpansion:
        """Expansion with the next term appended: c_k = N_(k-1)/k."""
        k = len(self.terms)
        c_k = _combine((Fraction(1, k), self._operator(k - 1)))
        term = _term(self.problem, c_k, k)
        return HPMExpansion(self.problem, self.terms + (term,), _extended(self.powers, c_k))

    def partial_sum(self, m: int) -> TimePolynomial:
        """Sum of the first m terms as one TimePolynomial."""
        if not 1 <= m <= len(self.terms):
            raise ContractViolation(
                f"partial sum of {m} terms requested; have {len(self.terms)}"
            )
        total = self.terms[0]
        for term in self.terms[1:m]:
            total = total + term
        return total

    def partial_sum_at(self, m: int, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
        if not 1 <= m <= len(self.terms):
            raise ContractViolation(
                f"partial sum of {m} terms requested; have {len(self.terms)}"
            )
        with working_dps(digits):
            total = mpf(0)
            for term in self.terms[:m]:
                total += term.eval_at(x, t, digits)
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
            scale = max(abs(c) for c in oracle) or mpf(1)
            for k in range(1, max_order + 1):
                symbolic = expansion.terms[k].coefficient(k).eval_at(x, digits)
                denom = abs(oracle[k]) if oracle[k] != 0 else scale
                worst = max(worst, abs(symbolic - oracle[k]) / denom)
        return +worst
