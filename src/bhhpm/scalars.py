"""Exact scalars: the quadratic field Q(sqrt(d)) over ``fractions.Fraction``,
and the one route from an exact value to a binary one.

``QuadraticNumber`` represents ``a + b*sqrt(d)`` with rational a, b and a
fixed square-free radicand d; values with b == 0 are normalized to radicand 0
so that rationals from different contexts compare equal.  ``to_value`` turns an
int, Fraction or QuadraticNumber into a raw ``mpmath.libmp`` value at
``mpmath.mp.prec``, rounded to nearest (``RND``) as mpf operators round, and
``to_mpf`` into an mpf object; no other module rounds an exact value.  Each of its
roundings, and each sum, product and quotient of raw values in ``running_sums`` and
the table cells, is the mpf operator's, made by one libmp ``normalize`` on exact
integers.  Where a and b*sqrt(d) cancel it goes through the conjugate, so no digits are lost.
sqrt(d) and each QuadraticNumber are rounded once per working precision.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

import mpmath
from mpmath import mpf
from mpmath.libmp import from_int, fzero, mpf_add, mpf_rdiv_int, normalize
from mpmath.libmp import round_nearest as RND  # the rounding of every mpf operator

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
            other = QuadraticNumber.from_rational(other)
        elif not isinstance(other, QuadraticNumber):
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
#: sqrt(d) = man*2^exp at the working precision as (man, exp), memoised per (d, prec).
_sqrt = lru_cache(maxsize=64)(lambda d, prec: mpmath.sqrt(d)._mpf_[1:3])


def _rounded(man: int, exp: int, prec: int) -> tuple:
    """The signed integer man times 2^exp, rounded once by libmp's ``normalize``."""
    return normalize(int(man < 0), abs(man), exp, man.bit_length(), prec, RND)


def _sum(s: tuple, t: tuple, prec: int) -> tuple:
    """s + t for raw values of at most prec bits, as ``mpf_add(s, t, prec, RND)``: exact, but
    where the exponents lie over 100 and the tops over prec + 4 bits apart, the smaller is
    kept only as a sticky -1 or +1 that far below the larger, whose sign the sum takes."""
    if not (s[1] and t[1]):
        return s if s[1] else t
    if s[2] < t[2]:
        s, t = t, s
    (ssign, sman, sexp, sbc), (tsign, tman, texp, tbc) = s, t
    offset = sexp - texp
    if offset > 100 and offset + sbc - tbc > prec + 4:
        man = (sman << prec + 4) + (1 if ssign == tsign else -1)
        return normalize(ssign, man, sexp - prec - 4, man.bit_length(), prec, RND)
    man = (sman << offset) + (tman if ssign == tsign else -tman)
    if man < 0:
        ssign, man = tsign, -man
    return normalize(ssign, man, texp, man.bit_length(), prec, RND)


def _product(s: tuple, t: tuple, prec: int) -> tuple:
    """s*t rounded as ``mpf_mul(s, t, prec, RND)`` rounds it: the exact product, rounded once."""
    man = s[1] * t[1]
    return normalize(s[0] ^ t[0], man, s[2] + t[2], man.bit_length(), prec, RND)


def _quotient(s: tuple, t: tuple, prec: int) -> tuple:
    """|s|/|t| for raw values of at most prec bits, t nonzero, rounded as
    ``mpf_abs(mpf_div(s, t, prec, RND))`` rounds it: an integer quotient of prec + 5
    or more bits, shifted as mpf_div shifts it, and a sticky bit for any remainder."""
    extra = prec - s[3] + t[3] + 5
    quot, rem = divmod(s[1] << extra, t[1])
    if rem:
        quot, extra = 2 * quot + 1, extra + 1
    return normalize(0, quot, s[2] - t[2] - extra, quot.bit_length(), prec, RND)


def running_sums(values: list[tuple], powers: list[tuple], prec: int) -> list[tuple]:
    """S_1, S_2, ..: the running sums of values[k]*powers[k] for raw values of at
    most prec bits, one per pair, each product and sum rounded by ``_product`` and ``_sum``."""
    total, sums = fzero, []
    for c, power in zip(values, powers):
        total = _sum(total, _product(c, power, prec), prec)
        sums.append(total)
    return sums


def _plus_int(r: tuple, n: int, prec: int) -> tuple:
    """r + n for a raw value r of at most prec bits and an integer n, rounded as
    ``mpf_add(r, from_int(n), prec, RND)`` rounds it: one integer sum at the lower of r's
    exponent and 0, rounded once.  Where n outweighs r by more than prec + 4 bits, mpf_add
    keeps r only as a sticky bit, which can round otherwise than the exact sum once n has
    more than prec bits; that case stays with mpf_add."""
    sign, man, exp, bc = r
    if n.bit_length() > exp + bc + prec + 4:
        return mpf_add(r, from_int(n), prec, RND)
    low = min(exp, 0)
    return _rounded(((-man if sign else man) << exp - low) + (n << -low if low else n), low, prec)


def surd_value(u: int, v: int, d: int, den: int = 1, scale: int = 1, shift: int = 0) -> tuple:
    """(u + v*sqrt(d))*scale/(den*2^shift) for integers u, v, d, den, scale and
    shift as a raw value at the working precision.  Each rounding is the one the
    mpf operator makes, one libmp ``normalize`` on exact integers: v*scale*sqrt(d) is
    one integer product, and den*2^shift one quotient by den's odd part, its power of
    2 joining the shift, as a power of 2 commutes with rounding.

    Where the signs of u and v differ it takes (u^2 - v^2*d)*scale^2/(u*scale -
    v*scale*sqrt(d)): the numerator is exact, with one square of a large scale,
    and the denominator cannot cancel, so the relative error stays at a few units
    of the last digit however close u is to -v*sqrt(d).
    """
    prec, su, sv = mpmath.mp.prec, u * scale, v * scale
    root, root_exp = _sqrt(d, prec)
    if not sv:
        value = _rounded(su, 0, prec)
    elif u == 0 or (u > 0) == (v > 0):
        value = _plus_int(_rounded(root * sv, root_exp, prec), su, prec)
    else:
        below = _plus_int(_rounded(-root * sv, root_exp, prec), su, prec)
        n = (u * u - v * v * d) * (scale * scale)
        sign, man, exp, bc = below
        # mpf_rdiv_int's quotient from n's top prec + bc + 5 bits: floor(floor(n/2^j)/man)
        # is floor(n/(2^j*man)), and its prec + 4 or more bits and a sticky bit for
        # any rest round as the exact quotient does
        j = n.bit_length() - bc - prec - 5
        if j > 0:
            q, rem = divmod((-n if sign else n) >> j, man)
            if rem or n & ((1 << j) - 1):
                q, j = 2 * q + 1, j - 1
            value = _rounded(q, j - exp, prec)
        else:
            value = mpf_rdiv_int(n, below, prec, RND)
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    _, man, exp, bc = _quotient(value, (0, odd, shift + twos, odd.bit_length()), prec)
    return value[0], man, exp, bc


@lru_cache(maxsize=64)
def _quadratic_value(value: QuadraticNumber, prec: int) -> tuple:
    w = math.lcm(value.rational.denominator, value.radical.denominator)
    return surd_value(int(value.rational * w), int(value.radical * w), value.radicand, w)


def to_value(value) -> tuple:
    """An int, Fraction, QuadraticNumber or mpf as a raw value at the current
    working precision; a + b*sqrt(d) goes over one denominator first, once
    per value and precision (``mpmath.mp.prec``)."""
    if isinstance(value, QuadraticNumber):
        return _quadratic_value(value, mpmath.mp.prec)
    if isinstance(value, Fraction):
        return surd_value(value.numerator, 0, 0, value.denominator)
    return mpf(value)._mpf_


def to_mpf(value) -> mpf:
    """``to_value`` as an mpf object."""
    return mpmath.mp.make_mpf(to_value(value))
