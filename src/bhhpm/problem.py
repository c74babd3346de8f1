"""Generalized Burgers-Huxley problem description and derived wave constants.

The PDE is  u_t = u_xx - alpha*u^n*u_x + beta*u*(1-u^n)*(u^n-gamma)  with
positive integer n.  Every problem carries the exact derived quantities of
its traveling-wave front: the discriminant rho^2 = alpha^2 + 4*beta*(n+1),
the square-free radicand d underneath rho, the front steepness kappa, the
front speed, and the amplitude gamma/2.  The "upper" branch takes the top
sign of every +/- pair in the two-parameter wave family, "lower" the bottom
sign; that pairing is the only one consistent with all of the built-in
benchmark cases and it is validated exactly in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Literal

from .errors import ProblemDomainError
from .scalars import QuadraticNumber, sqrt_rational, squarefree_decompose

Branch = Literal["upper", "lower"]

BRANCHES = ("upper", "lower")


@dataclass(frozen=True)
class BHProblem:
    """Immutable problem instance with exact derived wave parameters."""

    alpha: QuadraticNumber
    beta: QuadraticNumber
    gamma: QuadraticNumber
    n: int = 1
    branch: Branch = "upper"
    x0: QuadraticNumber = field(default_factory=QuadraticNumber)

    # derived, filled in __post_init__
    discriminant: Fraction = field(init=False, compare=False)
    radicand: int = field(init=False, compare=False)
    rho: QuadraticNumber = field(init=False, compare=False)
    kappa: QuadraticNumber = field(init=False, compare=False)
    speed: QuadraticNumber = field(init=False, compare=False)
    amplitude: QuadraticNumber = field(init=False, compare=False)

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma", "x0"):
            value = getattr(self, name)
            if not isinstance(value, QuadraticNumber):
                object.__setattr__(self, name, QuadraticNumber.coerce(value))
        if self.n < 1:
            raise ProblemDomainError("n must be a positive integer")
        if self.branch not in BRANCHES:
            raise ProblemDomainError(f"branch must be one of {BRANCHES}")
        if self.beta.sign() < 0:
            raise ProblemDomainError("beta must be nonnegative")

        disc = self.alpha * self.alpha + 4 * (self.n + 1) * self.beta
        if not disc.is_rational:
            raise ProblemDomainError(
                "alpha^2 + 4*beta*(n+1) must be rational to define the radicand"
            )
        if disc.rational < 0:
            raise ProblemDomainError("alpha^2 + 4*beta*(n+1) must be nonnegative")
        dfrac = disc.rational
        try:
            _, d = squarefree_decompose(dfrac.numerator * dfrac.denominator)
        except ValueError as exc:
            raise ProblemDomainError(f"alpha^2 + 4*beta*(n+1) = {dfrac}: {exc}") from None
        rho = sqrt_rational(dfrac)

        for name in ("alpha", "beta", "gamma", "x0"):
            value = getattr(self, name)
            if value.radicand not in (0, d):
                raise ProblemDomainError(
                    f"{name} carries sqrt({value.radicand}), "
                    f"but the problem's radicand is {d}"
                )

        sign = 1 if self.branch == "upper" else -1
        n1 = self.n + 1
        # kappa = n*gamma*(rho -/+ alpha) / (4*(n+1))
        kappa = (self.gamma * (rho - sign * self.alpha)) * Fraction(self.n, 4 * n1)
        # speed = ((alpha -/+ rho)*gamma + (alpha +/- rho)*(n+1)) / (2*(n+1))
        speed = (
            (self.alpha - sign * rho) * self.gamma + (self.alpha + sign * rho) * n1
        ) * Fraction(1, 2 * n1)
        amplitude = self.gamma * Fraction(1, 2)

        object.__setattr__(self, "discriminant", dfrac)
        object.__setattr__(self, "radicand", d)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "kappa", kappa)
        object.__setattr__(self, "speed", speed)
        object.__setattr__(self, "amplitude", amplitude)

    @property
    def sign(self) -> int:
        """+1 for the upper branch, -1 for the lower."""
        return 1 if self.branch == "upper" else -1


def _preset(alpha: int, beta: int, gamma: int, branch: Branch) -> BHProblem:
    return BHProblem(
        alpha=QuadraticNumber.from_rational(alpha),
        beta=QuadraticNumber.from_rational(beta),
        gamma=QuadraticNumber.from_rational(gamma),
        n=1,
        branch=branch,
    )


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
    return _preset(alpha, beta, gamma, branch)
