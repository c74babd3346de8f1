"""Exact scalars: the quadratic field Q(sqrt(d)) over ``fractions.Fraction``,
and the one route from an exact value to an mpf.

``QuadraticNumber`` represents ``a + b*sqrt(d)`` with rational a, b and a
fixed square-free radicand d; values with b == 0 are normalized to radicand 0
so that rationals from different contexts compare equal.  ``to_mpf`` turns an
int, Fraction or QuadraticNumber into an mpf at the current working precision
(``working_dps`` adds guard digits on top of the requested precision); where
a and b*sqrt(d) cancel it goes through the conjugate, so no digits are lost.
sqrt(d) and each QuadraticNumber are rounded once per working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath
from mpmath import mpf

from .errors import AlgebraDomainError

#: Default number of significant decimal digits for numeric rendering.
DEFAULT_DIGITS = 30

#: Extra working digits used internally by every evaluation routine.
GUARD_DIGITS = 10

# Trial-division bound for square-free decomposition: a cofactor left after
# dividing out every prime below p has at most two prime factors once it is
# below p**3, so it is square-free unless it is a perfect square.
_TRIAL_LIMIT = 1_000_000

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadraticNumber"]


def working_dps(digits: int):
    """mpmath context manager running at ``digits`` plus guard digits."""
    return mpmath.workdps(digits + GUARD_DIGITS)


@lru_cache(maxsize=64)
def squarefree_decompose(n: int) -> tuple[int, int]:
    """Write ``n = s**2 * d`` with d square-free; return ``(s, d)``.

    Trial division by 2 and each odd p stops once p**3 exceeds the remaining
    cofactor, which then has at most two prime factors: it is 1, a perfect
    square or square-free.  A cofactor of at least p**3 left at
    p > ``_TRIAL_LIMIT`` (10**18 or more, with no prime factor up to 10**6)
    that is not a perfect square raises ValueError rather than silently
    guessing.  Results are memoised, since every arithmetic result re-checks
    its radicand; a ValueError is not cached and recurs.
    """
    if n < 0:
        raise ValueError("radicand must be nonnegative")
    if n in (0, 1):
        return 1, n
    s, d, rem = 1, 1, n
    p = 2
    while p <= _TRIAL_LIMIT and p * p * p <= rem:
        if rem % p == 0:
            e = 0
            while rem % p == 0:
                rem //= p
                e += 1
            s *= p ** (e // 2)
            if e % 2:
                d *= p
        p += 1 if p == 2 else 2
    if rem > 1:
        r = math.isqrt(rem)
        if r * r == rem:
            s *= r
        elif rem < p * p * p:
            d *= rem
        else:
            raise ValueError(f"cannot certify square-free part of {n}")
    return s, d


class QuadraticNumber:
    """Exact element ``rational + radical*sqrt(radicand)`` of Q(sqrt(d)).

    The radicand is kept square-free; purely rational values are stored with
    radicand 0.  Two values can be combined arithmetically only when their
    radicands agree or one side is purely rational.  Values are immutable by
    convention: no method changes one after construction.
    """

    __slots__ = ("rational", "radical", "radicand", "_hash")

    def __init__(self, rational: RationalLike = Fraction(0),
                 radical: RationalLike = Fraction(0), radicand: int = 0) -> None:
        if not isinstance(rational, Fraction):
            rational = Fraction(rational)
        if not isinstance(radical, Fraction):
            radical = Fraction(radical)
        s, d = squarefree_decompose(radicand)
        if s != 1:
            radical *= s
        if d == 1:
            rational += radical
        if d <= 1 and radical:  # sqrt(0) = 0; sqrt(1) went into the rational part
            radical = Fraction(0)
        if radical == 0:
            d = 0
        self.rational = rational
        self.radical = radical
        self.radicand = d
        self._hash: int | None = None  # set on first use: Fraction hashes are not cached

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.radical == 0 and self.rational == other
        if isinstance(other, QuadraticNumber):
            return (
                self.rational == other.rational
                and self.radical == other.radical
                and self.radicand == other.radicand
            )
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.rational if self.radical == 0
                              else (self.rational, self.radical, self.radicand))
        return self._hash

    @classmethod
    def from_rational(cls, value: RationalLike) -> QuadraticNumber:
        return cls(Fraction(value))

    @classmethod
    def coerce(cls, value: ScalarLike) -> QuadraticNumber:
        if isinstance(value, QuadraticNumber):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(Fraction(value))
        raise TypeError(f"cannot interpret {value!r} as a quadratic number")

    @property
    def is_rational(self) -> bool:
        return self.radical == 0

    def is_zero(self) -> bool:
        return self.rational == 0 and self.radical == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def _join_radicand(self, other: QuadraticNumber) -> int:
        if self.radicand == 0:
            return other.radicand
        if other.radicand in (0, self.radicand):
            return self.radicand
        raise AlgebraDomainError(
            f"mixed radicands sqrt({self.radicand}) and sqrt({other.radicand})"
        )

    def __add__(self, other: ScalarLike) -> QuadraticNumber:
        if isinstance(other, (int, Fraction)):
            other = QuadraticNumber.from_rational(other)
        elif not isinstance(other, QuadraticNumber):
            return NotImplemented
        d = self._join_radicand(other)
        return QuadraticNumber(
            self.rational + other.rational, self.radical + other.radical, d
        )

    def __radd__(self, other: ScalarLike) -> QuadraticNumber:
        return self + other

    def __sub__(self, other: ScalarLike) -> QuadraticNumber:
        return self + (-QuadraticNumber.coerce(other))

    def __rsub__(self, other: ScalarLike) -> QuadraticNumber:
        return (-self) + other

    def __neg__(self) -> QuadraticNumber:
        return QuadraticNumber(-self.rational, -self.radical, self.radicand)

    def __mul__(self, other: ScalarLike) -> QuadraticNumber:
        if isinstance(other, (int, Fraction)):
            return QuadraticNumber(
                self.rational * other, self.radical * other, self.radicand
            )
        if not isinstance(other, QuadraticNumber):
            return NotImplemented
        d = self._join_radicand(other)
        rational = self.rational * other.rational + self.radical * other.radical * d
        radical = self.rational * other.radical + self.radical * other.rational
        return QuadraticNumber(rational, radical, d)

    def __rmul__(self, other: ScalarLike) -> QuadraticNumber:
        return self * other

    def inverse(self) -> QuadraticNumber:
        # 1/(a+b*sqrt(d)) = (a-b*sqrt(d))/(a^2 - b^2 d); the norm vanishes
        # only at zero because d is square-free.
        norm = self.rational**2 - self.radical**2 * self.radicand
        if norm == 0:
            raise ZeroDivisionError("division by zero quadratic number")
        return QuadraticNumber(
            self.rational / norm, -self.radical / norm, self.radicand
        )

    def sign(self) -> int:
        """Exact sign of the real value (-1, 0, or +1)."""
        # a + b*sqrt(d) has the sign of a*|a| + b*|b|*d, which is zero only at
        # zero: b == 0 or d is square-free
        a, b = self.rational, self.radical
        key = a * abs(a) + b * abs(b) * self.radicand
        return (key > 0) - (key < 0)

    def __str__(self) -> str:
        if self.radical == 0:
            return str(self.rational)
        radical = f"sqrt({self.radicand})"
        if abs(self.radical) != 1:
            radical = f"{abs(self.radical)}*{radical}"
        sign = "-" if self.radical < 0 else "+"
        if self.rational == 0:
            return radical if sign == "+" else f"-{radical}"
        return f"{self.rational}{sign}{radical}"

    def __repr__(self) -> str:
        return f"QuadraticNumber({self.rational!r}, {self.radical!r}, {self.radicand})"


ZERO = QuadraticNumber()
#: sqrt(d) at the working precision, memoised per (d, ``mpmath.mp.prec``).
_sqrt = lru_cache(maxsize=64)(lambda d, prec: mpmath.sqrt(d))


def surd_to_mpf(u: int, v: int, d: int) -> mpf:
    """u + v*sqrt(d) for integers u, v, d, at the current working precision.

    Where the parts have opposite signs it takes (u^2 - v^2*d)/(u - v*sqrt(d)):
    the numerator is exact and the denominator cannot cancel, so the relative
    error stays at a few units of the last digit however close u is to
    -v*sqrt(d).
    """
    if not v:
        return mpf(u)
    root = v * _sqrt(d, mpmath.mp.prec)
    if u * v >= 0:
        return u + root
    return (u * u - v * v * d) / (u - root)


@lru_cache(maxsize=64)
def _quadratic_to_mpf(value: QuadraticNumber, prec: int) -> mpf:
    w = math.lcm(value.rational.denominator, value.radical.denominator)
    return surd_to_mpf(int(value.rational * w), int(value.radical * w), value.radicand) / w


def to_mpf(value) -> mpf:
    """An int, Fraction, QuadraticNumber or mpf as an mpf at the current
    working precision; a + b*sqrt(d) goes over one denominator first, once
    per value and precision (``mpmath.mp.prec``)."""
    if isinstance(value, QuadraticNumber):
        return _quadratic_to_mpf(value, mpmath.mp.prec)
    if isinstance(value, Fraction):
        return mpf(value.numerator) / value.denominator
    return mpf(value)


def sqrt_rational(value: RationalLike) -> QuadraticNumber:
    """Exact square root of a nonnegative rational as a QuadraticNumber."""
    q = Fraction(value)
    if q < 0:
        raise ValueError("square root of a negative rational")
    if q == 0:
        return ZERO
    s, d = squarefree_decompose(q.numerator * q.denominator)
    return QuadraticNumber(Fraction(0), Fraction(s, q.denominator), d)
