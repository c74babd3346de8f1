"""Exact traveling-wave solutions (Deng's two-branch family), a time-Taylor
oracle, and a finite-difference PDE residual checker.

The wave of a problem is  u(x,t) = [A + s*A*tanh(kappa*phi)]^(1/n),
phi = x - c*t + x0, with amplitude A = gamma/2, branch sign s, steepness
kappa and speed c, all exact values of the problem that ``to_mpf`` evaluates
at the working precision.  It is evaluated in the equal logistic form
[gamma/(1 + exp(-2*s*kappa*phi))]^(1/n), which keeps its digits in the far
tail where 1 + s*tanh cancels to 0.  The Taylor oracle expands u(x, .) about t = 0 by power-series
recursion on tanh's ODE (w' = -kappa*c*(1 - w^2)) instead of repeated numeric
differentiation, which would lose digits past order 3.  It is fully
independent of the symbolic engine and anchors its correctness tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

import mpmath
from mpmath import mpf

from .errors import EvaluationError, UnsupportedProblemError
from .problem import BHProblem
from .scalars import DEFAULT_DIGITS, GUARD_DIGITS, to_mpf, working_dps

#: Pointwise-evaluable space-time function: f(x, t, digits) -> mpf.
PointFunction = Callable[[mpf, mpf, int], mpf]


class TravelingWave:
    """The exact front of ``problem``; a bound ``eval_at`` is a PointFunction."""

    def __init__(self, problem: BHProblem) -> None:
        self.problem = problem

    def eval_at(self, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
        """Wave value, relative error below ``10**(-digits + 4)``."""
        p = self.problem
        with working_dps(digits):
            phase = to_mpf(p.kappa) * (to_mpf(x) - to_mpf(p.speed) * to_mpf(t) + to_mpf(p.x0))
            base = to_mpf(p.gamma) / (1 + mpmath.exp(-2 * p.sign * phase))
            if p.n == 1:
                return +base
            if base < 0:
                raise EvaluationError(f"negative base {base} under 1/{p.n} root")
            return +mpmath.root(base, p.n)

    def time_taylor_coefficients(
        self, x, order: int, digits: int = DEFAULT_DIGITS
    ) -> Sequence[mpf]:
        """Coefficients of t^0..t^order of u(x, .) about t = 0 (n = 1 only)."""
        p = self.problem
        if p.n != 1:
            raise UnsupportedProblemError("Taylor oracle requires n = 1")
        if order < 0:
            raise ValueError("order must be nonnegative")
        with working_dps(digits):
            kappa = to_mpf(p.kappa)
            b = -kappa * to_mpf(p.speed)  # d(phase)/dt
            w = [mpmath.tanh(kappa * (to_mpf(x) + to_mpf(p.x0)))] + [mpf(0)] * order
            for j in range(order):
                # w' = b*(1 - w^2), advanced by Cauchy products
                conv = sum(w[i] * w[j - i] for i in range(j + 1))
                w[j + 1] = b * ((1 if j == 0 else 0) - conv) / (j + 1)
            amp = to_mpf(p.amplitude)
            return [
                +(amp * ((1 if j == 0 else 0) + p.sign * w[j]))
                for j in range(order + 1)
            ]

    def t_radius(self, x, digits: int = DEFAULT_DIGITS) -> mpf:
        """R(x) = |x + x0 - i*pi/(2*kappa)|/|c|, the radius of convergence of
        the Taylor series of u(x, .) about t = 0: the distance to the nearest
        pole of tanh(kappa*phi).  Infinite where u does not move (c = 0)."""
        p = self.problem
        if p.speed.is_zero() or p.kappa.is_zero():
            return mpmath.inf
        with working_dps(digits):
            pole = mpmath.pi / (2 * to_mpf(p.kappa))
            return +(mpmath.hypot(to_mpf(x) + to_mpf(p.x0), pole) / abs(to_mpf(p.speed)))


def deng_wave(problem: BHProblem) -> TravelingWave:
    """Exact wave for the problem's branch."""
    return TravelingWave(problem)


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
