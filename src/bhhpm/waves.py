"""Exact traveling-wave solutions (Deng's two-branch family) and a
time-Taylor oracle.

The wave of a problem is  u(x,t) = [gamma*sigma]^(1/n),  sigma =
1/(1 + exp(-rate*phi)),  phi = x - c*t + x0, with the front's rate =
2*s*kappa (branch sign s) and speed c: the form [A + s*A*tanh(kappa*phi)]^(1/n),
A = gamma/2, without its cancellation in the far tails.  ``_value_at``
evaluates it on raw libmp values; ``eval_at`` makes the mpf object.  The
Taylor oracle expands u(x, .) about t = 0 by power-series recursion on
d(sigma)/dt = -c*rate*sigma*tau, with sigma and tau = 1 - sigma each from its
own logistic, instead of repeated numeric differentiation, which would lose
digits past order 3.  It is fully independent of the symbolic engine and
anchors its correctness tests.
"""

from __future__ import annotations

from typing import Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import fone, mpf_add, mpf_div, mpf_exp, mpf_mul, mpf_neg, mpf_sign, mpf_sub

from .errors import EvaluationError, UnsupportedProblemError
from .problem import BHProblem
from .scalars import DEFAULT_DIGITS, RND, to_mpf, to_value, working_dps


class TravelingWave:
    """The exact front of ``problem``."""

    def __init__(self, problem: BHProblem) -> None:
        self.problem = problem

    def eval_at(self, x, t, digits: int = DEFAULT_DIGITS) -> mpf:
        """Wave value, relative error below ``10**(-digits + 4)``."""
        with working_dps(digits):
            speed_t = mpf_mul(to_value(self.problem.speed), to_value(t), mpmath.mp.prec, RND)
            return mpmath.mp.make_mpf(self._value_at(to_value(x), speed_t))

    def _value_at(self, x: tuple, speed_t: tuple) -> tuple:
        """u at the raw values x and speed*t, as a raw value at the working precision."""
        p, prec = self.problem, mpmath.mp.prec
        phase = mpf_add(mpf_sub(x, speed_t, prec, RND), to_value(p.x0), prec, RND)
        growth = mpf_exp(mpf_neg(mpf_mul(to_value(p.rate), phase, prec, RND)), prec, RND)
        base = mpf_div(to_value(p.gamma), mpf_add(growth, fone, prec, RND), prec, RND)
        if p.n == 1:
            return base
        if mpf_sign(base) < 0:
            raise EvaluationError(f"negative base {mpmath.mp.make_mpf(base)} under 1/{p.n} root")
        return mpmath.root(mpmath.mp.make_mpf(base), p.n)._mpf_

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
            rate = to_mpf(p.rate)
            z = rate * (to_mpf(x) + to_mpf(p.x0))
            b = -to_mpf(p.speed) * rate  # d(sigma)/dt = b*sigma*tau, tau = 1 - sigma
            sigma, tau = [1 / (1 + mpmath.exp(-z))], [1 / (1 + mpmath.exp(z))]
            for j in range(order):  # advanced by Cauchy products
                sigma.append(b * sum(sigma[i] * tau[j - i] for i in range(j + 1)) / (j + 1))
                tau.append(-sigma[-1])
            gamma = to_mpf(p.gamma)
            return [+(gamma * c) for c in sigma]

    def t_radius(self, x, digits: int = DEFAULT_DIGITS) -> mpf:
        """R(x) = |x + x0 - i*pi/rate|/|c|, the radius of convergence of
        the Taylor series of u(x, .) about t = 0: the distance to the nearest
        pole of sigma.  Infinite where u does not move (c = 0)."""
        p = self.problem
        if p.speed.is_zero() or p.rate.is_zero():
            return mpmath.inf
        with working_dps(digits):
            pole = mpmath.pi / to_mpf(p.rate)
            return +(mpmath.hypot(to_mpf(x) + to_mpf(p.x0), pole) / abs(to_mpf(p.speed)))


def deng_wave(problem: BHProblem) -> TravelingWave:
    """Exact wave for the problem's branch."""
    return TravelingWave(problem)
