"""Generalized Burgers-Huxley problem description and derived wave constants.

The PDE is  u_t = u_xx - alpha*u^n*u_x + beta*u*(1-u^n)*(u^n-gamma)  with
positive integer n.  Every problem carries the exact derived quantities of
its traveling-wave front: the square-free radicand d underneath rho, the root of
the discriminant alpha^2 + 4*beta*(n+1), the front steepness kappa, its rate
2*s*kappa (s = +1 on the upper branch, -1 on the lower) and the front speed.
The front's amplitude is gamma/2.  The "upper" branch takes the top
sign of every +/- pair in the two-parameter wave family, "lower" the bottom
sign; that pairing is the only one consistent with all of the built-in
benchmark cases and it is validated exactly in the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Literal

from .errors import ProblemDomainError
from .scalars import ZERO, QuadraticNumber, ScalarLike, squarefree_decompose, whole

Branch = Literal["upper", "lower"]

BRANCHES = ("upper", "lower")


class BHProblem:
    """Problem instance with exact derived wave parameters.

    Equal problems (same alpha, beta, gamma, n, branch and x0) hash alike,
    so a problem can key a cache.  Nothing changes a problem after
    construction.
    """

    def __init__(self, alpha: ScalarLike, beta: ScalarLike, gamma: ScalarLike,
                 n: int = 1, branch: Branch = "upper", x0: ScalarLike = ZERO) -> None:
        self.alpha = QuadraticNumber.coerce(alpha)
        self.beta = QuadraticNumber.coerce(beta)
        self.gamma = QuadraticNumber.coerce(gamma)
        self.n = whole(n, "n", ProblemDomainError)
        self.branch = branch
        self.x0 = QuadraticNumber.coerce(x0)
        if self.n < 1:
            raise ProblemDomainError("n must be a positive integer")
        if self.branch not in BRANCHES:
            raise ProblemDomainError(f"branch must be one of {BRANCHES}")
        if self.beta.sign() < 0:
            raise ProblemDomainError("beta must be nonnegative")

        # the keys carry one square root at most, or the discriminant mixes two
        surds = [(name, getattr(self, name).radicand) for name in ("alpha", "beta", "gamma", "x0")
                 if getattr(self, name).radicand]
        first, root = surds[0] if surds else ("", 0)
        for name, other in surds:
            if other != root:
                raise ProblemDomainError(
                    f"{name} carries sqrt({other}), but {first} carries sqrt({root})"
                )

        disc = self.alpha * self.alpha + 4 * (self.n + 1) * self.beta
        if not disc.is_rational:
            raise ProblemDomainError(
                "alpha^2 + 4*beta*(n+1) must be rational to define the radicand"
            )
        dfrac = disc.rational
        try:
            s, d = squarefree_decompose(dfrac.numerator * dfrac.denominator)
        except ValueError as exc:
            raise ProblemDomainError(f"alpha^2 + 4*beta*(n+1) = {dfrac}: {exc}") from None
        rho = QuadraticNumber(0, Fraction(s, dfrac.denominator), d)  # sqrt(p/q) = s*sqrt(d)/q

        if root not in (0, d):
            raise ProblemDomainError(
                f"{first} carries sqrt({root}), but the problem's radicand is {d}"
            )

        self.sign = sign = 1 if self.branch == "upper" else -1
        n1 = self.n + 1
        # kappa = n*gamma*(rho -/+ alpha) / (4*(n+1))
        kappa = (self.gamma * (rho - sign * self.alpha)) * Fraction(self.n, 4 * n1)
        # speed = ((alpha -/+ rho)*gamma + (alpha +/- rho)*(n+1)) / (2*(n+1))
        speed = (
            (self.alpha - sign * rho) * self.gamma + (self.alpha + sign * rho) * n1
        ) * Fraction(1, 2 * n1)

        self.radicand = d
        self.kappa = kappa
        self.rate = kappa * (2 * sign)  # d(sigma)/dx = rate*sigma*(1 - sigma)
        self.speed = speed
        self._hash: int | None = None  # set on first use: the cache key of every series step

    def _key(self) -> tuple:
        return self.alpha, self.beta, self.gamma, self.n, self.branch, self.x0

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash


#: The three built-in benchmark problems.
PRESETS: dict[int, tuple[int, int, int, Branch]] = {
    1: (0, 1, 1, "upper"),
    2: (-1, 1, 1, "lower"),
    3: (-2, 1, 3, "lower"),
}


def case_preset(case_id: int) -> BHProblem:
    """Benchmark case 1, 2, or 3."""
    try:
        alpha, beta, gamma, branch = PRESETS[case_id]
    except KeyError:
        raise ProblemDomainError(f"unknown case {case_id!r}; presets are 1, 2, 3")
    return BHProblem(alpha, beta, gamma, branch=branch)
