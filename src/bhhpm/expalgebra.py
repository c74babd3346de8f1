"""Symbolic functions of x as rational functions of E = exp(kappa*x).

``LaurentPoly`` is a sparse Laurent polynomial in E with QuadraticNumber
coefficients.  ``ExpRational`` is a quotient of two such polynomials tagged
with the rate kappa, kept in a canonical form:

  * the denominator's lowest stored exponent is 0 (both sides are shifted by
    a power of E, which never changes the value),
  * numerator and denominator are coprime as univariate polynomials in E
    over Q(sqrt(d)) (monomial factors of the numerator cannot cancel because
    the denominator has a nonzero constant term),
  * the denominator's leading coefficient is 1.

Canonical form makes structural equality meaningful, so closed forms can be
compared exactly.  Differentiation uses d/dx E^m = m*kappa*E^m plus the
quotient rule, with GCD reduction applied on construction so repeated
derivatives do not inflate the denominator degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping, Union

import mpmath
from mpmath import mpf

from .errors import AlgebraDomainError, EvaluationError
from .scalars import DEFAULT_DIGITS, QuadraticNumber, working_dps

CoefficientLike = Union[int, Fraction, QuadraticNumber]


def to_mpf(x) -> mpf:
    """Convert a point coordinate to mpf at the current working precision."""
    if isinstance(x, Fraction):
        return mpf(x.numerator) / x.denominator
    if isinstance(x, QuadraticNumber):
        return x.evalf(mpmath.mp.dps)
    return mpf(x)


class LaurentPoly:
    """Sparse Laurent polynomial: maps integer exponents to coefficients."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, CoefficientLike] | None = None) -> None:
        cleaned: dict[int, QuadraticNumber] = {}
        if coeffs:
            for exp, c in coeffs.items():
                q = QuadraticNumber.coerce(c)
                if not q.is_zero():
                    cleaned[int(exp)] = q
        self._coeffs = cleaned

    @classmethod
    def zero(cls) -> LaurentPoly:
        return cls()

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: 1})

    @classmethod
    def monomial(cls, exponent: int, coeff: CoefficientLike = 1) -> LaurentPoly:
        return cls({exponent: coeff})

    def items(self) -> Iterator[tuple[int, QuadraticNumber]]:
        return iter(sorted(self._coeffs.items()))

    def coeff(self, exponent: int) -> QuadraticNumber:
        return self._coeffs.get(exponent, QuadraticNumber())

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def min_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return min(self._coeffs)

    @property
    def max_exp(self) -> int:
        if not self._coeffs:
            raise ValueError("zero polynomial has no exponents")
        return max(self._coeffs)

    def __len__(self) -> int:
        return len(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._coeffs)
        for exp, c in other._coeffs.items():
            s = out.get(exp)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(exp, None)
            else:
                out[exp] = s
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = out
        return result

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = {e: -c for e, c in self._coeffs.items()}
        return result

    def __mul__(self, other: LaurentPoly | CoefficientLike) -> LaurentPoly:
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return self.scaled(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[int, QuadraticNumber] = {}
        for e1, c1 in self._coeffs.items():
            for e2, c2 in other._coeffs.items():
                e = e1 + e2
                s = out.get(e)
                p = c1 * c2
                s = p if s is None else s + p
                if s.is_zero():
                    out.pop(e, None)
                else:
                    out[e] = s
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = out
        return result

    def __rmul__(self, other: CoefficientLike) -> LaurentPoly:
        return self.scaled(other)

    def scaled(self, factor: CoefficientLike) -> LaurentPoly:
        q = QuadraticNumber.coerce(factor)
        if q.is_zero():
            return LaurentPoly.zero()
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = {e: c * q for e, c in self._coeffs.items()}
        return result

    def shifted(self, offset: int) -> LaurentPoly:
        """Multiply by E**offset."""
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = {e + offset: c for e, c in self._coeffs.items()}
        return result

    def diff(self, kappa: QuadraticNumber) -> LaurentPoly:
        """d/dx with E = exp(kappa*x), i.e. E^m -> m*kappa*E^m."""
        out: dict[int, QuadraticNumber] = {}
        for e, c in self._coeffs.items():
            if e != 0:
                out[e] = c * kappa * e
        result = LaurentPoly.__new__(LaurentPoly)
        result._coeffs = out
        return result

    def eval_at(self, E: mpf) -> mpf:
        """Value at a given E, computed at the caller's working precision."""
        total = mpf(0)
        roots: dict[int, mpf] = {}
        for e, c in self._coeffs.items():
            term = mpf(c.rational.numerator) / c.rational.denominator
            if c.radical:
                root = roots.get(c.radicand)
                if root is None:
                    root = roots[c.radicand] = mpmath.sqrt(c.radicand)
                term += (mpf(c.radical.numerator) / c.radical.denominator) * root
            total += term * E**e
        return total

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e, c in sorted(self._coeffs.items(), reverse=True):
            cs = str(c)
            if "+" in cs[1:] or "-" in cs[1:]:
                cs = f"({cs})"
            if e == 0:
                parts.append(cs)
            elif cs == "1":
                parts.append(f"E^{e}")
            elif cs == "-1":
                parts.append(f"-E^{e}")
            else:
                parts.append(f"{cs}*E^{e}")
        text = " + ".join(parts)
        return text.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({dict(sorted(self._coeffs.items()))})"


def _poly_divmod(num: LaurentPoly, den: LaurentPoly) -> tuple[LaurentPoly, LaurentPoly]:
    """Long division of ordinary polynomials (nonnegative exponents)."""
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quot: dict[int, QuadraticNumber] = {}
    rem = num
    ddeg = den.max_exp
    dlead = den.coeff(ddeg)
    dlead_inv = dlead.inverse()
    while not rem.is_zero and rem.max_exp >= ddeg:
        shift = rem.max_exp - ddeg
        factor = rem.coeff(rem.max_exp) * dlead_inv
        quot[shift] = factor
        rem = rem - den.shifted(shift).scaled(factor)
    q = LaurentPoly.__new__(LaurentPoly)
    q._coeffs = quot
    return q, rem


def _monic(p: LaurentPoly) -> LaurentPoly:
    if p.is_zero:
        return p
    lead = p.coeff(p.max_exp)
    if lead == 1:
        return p
    return p.scaled(lead.inverse())


def _poly_gcd(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    """Monic Euclidean GCD over Q(sqrt(d)); gcd(0, 0) is 0.

    Every remainder is re-normalized to monic form; without this the
    coefficient sizes in the remainder sequence explode combinatorially.
    """
    a, b = _monic(a), _monic(b)
    while not b.is_zero:
        _, r = _poly_divmod(a, b)
        a, b = b, _monic(r)
    return a


class ExpRational:
    """Quotient of Laurent polynomials in E = exp(kappa*x), canonical form."""

    __slots__ = ("num", "den", "kappa")

    def __init__(self, num: LaurentPoly, den: LaurentPoly, kappa: QuadraticNumber) -> None:
        if den.is_zero:
            raise ZeroDivisionError("ExpRational with zero denominator")
        if num.is_zero:
            num, den = LaurentPoly.zero(), LaurentPoly.one()
        else:
            # shift so the denominator is an ordinary polynomial with a
            # nonzero constant term
            shift = -den.min_exp
            den = den.shifted(shift)
            num = num.shifted(shift)
            # split a monomial factor off the numerator: it cannot divide
            # the denominator, which now has a nonzero constant term
            val = num.min_exp
            body = num.shifted(-val) if val else num
            g = _poly_gcd(body, den)
            if not g.is_zero and g.max_exp > 0:
                body, _ = _poly_divmod(body, g)
                den, _ = _poly_divmod(den, g)
            lead = den.coeff(den.max_exp)
            if lead != 1:
                inv = lead.inverse()
                body = body.scaled(inv)
                den = den.scaled(inv)
            num = body.shifted(val) if val else body
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "kappa", kappa)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("ExpRational values are immutable")

    @classmethod
    def zero(cls, kappa: QuadraticNumber) -> ExpRational:
        return cls(LaurentPoly.zero(), LaurentPoly.one(), kappa)

    @classmethod
    def constant(cls, value: CoefficientLike, kappa: QuadraticNumber) -> ExpRational:
        return cls(LaurentPoly({0: value}), LaurentPoly.one(), kappa)

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def is_constant(self) -> bool:
        return self.den == LaurentPoly.one() and (
            self.num.is_zero or (self.num.min_exp == 0 and self.num.max_exp == 0)
        )

    def _check_rate(self, other: ExpRational) -> None:
        if self.kappa != other.kappa:
            raise AlgebraDomainError(
                f"mixed rates {self.kappa} and {other.kappa}"
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExpRational):
            return (
                self.kappa == other.kappa
                and self.num == other.num
                and self.den == other.den
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.num, self.den, self.kappa))

    def __add__(self, other: ExpRational) -> ExpRational:
        if not isinstance(other, ExpRational):
            return NotImplemented
        self._check_rate(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self.den == other.den:
            return ExpRational(self.num + other.num, self.den, self.kappa)
        g = _poly_gcd(self.den, other.den)
        if not g.is_zero and g.max_exp > 0:
            da, _ = _poly_divmod(self.den, g)
            db, _ = _poly_divmod(other.den, g)
        else:
            da, db = self.den, other.den
        num = self.num * db + other.num * da
        return ExpRational(num, self.den * db, self.kappa)

    def __sub__(self, other: ExpRational) -> ExpRational:
        return self + (-other)

    def __neg__(self) -> ExpRational:
        return self.scaled(-1)

    def __mul__(self, other: ExpRational | CoefficientLike) -> ExpRational:
        if isinstance(other, (int, Fraction, QuadraticNumber)):
            return self.scaled(other)
        if not isinstance(other, ExpRational):
            return NotImplemented
        self._check_rate(other)
        return ExpRational(self.num * other.num, self.den * other.den, self.kappa)

    def __rmul__(self, other: CoefficientLike) -> ExpRational:
        return self.scaled(other)

    def scaled(self, factor: CoefficientLike) -> ExpRational:
        return ExpRational(self.num.scaled(factor), self.den, self.kappa)

    def diff_x(self) -> ExpRational:
        """Exact d/dx via the quotient rule; result is canonical."""
        if self.is_zero:
            return self
        dnum = self.num.diff(self.kappa)
        dden = self.den.diff(self.kappa)
        if dden.is_zero:
            return ExpRational(dnum, self.den, self.kappa)
        return ExpRational(
            dnum * self.den - self.num * dden, self.den * self.den, self.kappa
        )

    def reduced(self) -> ExpRational:
        """Re-run canonicalization (idempotent; values are already canonical)."""
        return ExpRational(self.num, self.den, self.kappa)

    def eval_at(self, x, digits: int = DEFAULT_DIGITS) -> mpf:
        """Value at x with relative error below ``10**(-digits + 4)``."""
        with working_dps(digits):
            kv = self.kappa.evalf(mpmath.mp.dps)
            E = mpmath.exp(kv * to_mpf(x))
            den_val = self.den.eval_at(E)
            if den_val == 0:
                raise EvaluationError(f"denominator vanishes at x={x}")
            return +(self.num.eval_at(E) / den_val)

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        num = str(self.num)
        if self.den == LaurentPoly.one():
            return f"({num})"
        return f"({num})/({self.den})"

    def __repr__(self) -> str:
        return f"ExpRational({self.num!r}, {self.den!r}, kappa={self.kappa!r})"
