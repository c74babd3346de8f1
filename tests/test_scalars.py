import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from bhhpm import QuadraticNumber, sqrt_rational, squarefree_decompose, working_dps
from bhhpm.errors import AlgebraDomainError
from bhhpm.scalars import fraction_to_mpf


def quad(a, b=0, d=0):
    return QuadraticNumber(Fraction(a), Fraction(b), d)


class TestBigRational:
    def test_canonical_form(self):
        q = Fraction(6, -4)
        assert q.denominator > 0
        assert abs(q.numerator) == 3 and q.denominator == 2

    def test_normalize_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            q = Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
            assert Fraction(q.numerator, q.denominator) == q
            assert q.denominator > 0

    def test_big_integers(self):
        q = Fraction(10**80 + 1, 10**40)
        assert q * q.denominator == 10**80 + 1


class TestSquarefree:
    @pytest.mark.parametrize(
        "n,expected",
        [(0, (1, 0)), (1, (1, 1)), (2, (1, 2)), (8, (2, 2)), (9, (3, 1)),
         (12, (2, 3)), (360, (6, 10)), (49, (7, 1)), (10**6 + 3, (1, 10**6 + 3))],
    )
    def test_known(self, n, expected):
        assert squarefree_decompose(n) == expected

    def test_large_perfect_square(self):
        p = 10**6 + 3
        assert squarefree_decompose(p * p) == (p, 1)

    def test_undecidable_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose((10**6 + 3) * (10**6 + 33))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            squarefree_decompose(-4)

    @pytest.mark.parametrize("n", [12, 999950891, 1000000007])
    def test_memoised_matches_uncached(self, n):
        assert squarefree_decompose(n) == squarefree_decompose.__wrapped__(n)
        assert squarefree_decompose(n) == squarefree_decompose.__wrapped__(n)

    def test_undecidable_raises_every_time(self):
        # exceptions are not memoised
        for _ in range(2):
            with pytest.raises(ValueError):
                squarefree_decompose(1000036000099)


class TestQuadraticNumber:
    def test_normalization(self):
        assert quad(2, 3, 1) == quad(5)
        assert quad(2, 0, 7) == quad(2)
        assert quad(0, Fraction(1, 2), 8) == quad(0, 1, 2)  # sqrt(8)/2 = sqrt(2)
        assert quad(1, 1, 2).radicand == 2

    def test_sqrt3_squared(self):
        root3 = quad(0, 1, 3)
        assert root3 * root3 == quad(3)

    def test_case3_factor_shape(self):
        factor = Fraction(9, 2) * quad(-4, 3, 3)
        assert factor.rational == -18
        assert factor.radical == Fraction(27, 2)
        assert factor.radicand == 3

    def test_conjugate_division(self):
        # 1/(2 - sqrt(2)) = 1 + sqrt(2)/2; brute-force check by expansion
        value = 1 / quad(2, -1, 2)
        assert value == quad(1, Fraction(1, 2), 2)
        assert quad(2, -1, 2) * quad(1, Fraction(1, 2), 2) == quad(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            quad(1) / quad(0)

    def test_mixed_radicands_rejected(self):
        with pytest.raises(AlgebraDomainError):
            quad(0, 1, 2) + quad(0, 1, 3)
        with pytest.raises(AlgebraDomainError):
            quad(0, 1, 2) * quad(0, 1, 5)

    def test_rational_mixes_with_any_radicand(self):
        assert quad(2) * quad(0, 1, 3) == quad(0, 2, 3)
        assert quad(1, 1, 2) + quad(3) == quad(4, 1, 2)

    def test_pow(self):
        x = quad(1, 1, 2)
        assert x**0 == quad(1)
        assert x**3 == x * x * x
        assert x**-2 == (x * x).inverse()

    def test_sign(self):
        assert quad(0).sign() == 0
        assert quad(-3).sign() == -1
        assert quad(0, 1, 2).sign() == 1
        assert quad(-4, 3, 3).sign() == 1      # 3*sqrt(3) = 5.19... > 4
        assert quad(-6, 3, 3).sign() == -1     # 3*sqrt(3) < 6
        assert quad(4, -2, 3).sign() == 1      # 4 > 2*sqrt(3) = 3.46...
        rng = random.Random(3)
        for _ in range(100):
            q = quad(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                     Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 5)
            numeric = q.evalf(30)
            expected = 0 if numeric == 0 else (1 if numeric > 0 else -1)
            assert q.sign() == expected


class TestFieldAxioms:
    def setup_method(self):
        rng = random.Random(11)
        self.values = [
            quad(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                 Fraction(rng.randint(-9, 9), rng.randint(1, 9)), 3)
            for _ in range(60)
        ]

    def test_commutativity(self):
        for a, b in zip(self.values, self.values[1:]):
            assert a + b == b + a
            assert a * b == b * a

    def test_associativity_distributivity(self):
        for a, b, c in zip(self.values, self.values[1:], self.values[2:]):
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c

    def test_inverse(self):
        for a in self.values:
            if not a.is_zero():
                assert a * a.inverse() == quad(1)


class TestEvalf:
    def test_sqrt2_30_digits(self):
        value = quad(0, 1, 2).evalf(30)
        with working_dps(30):
            assert mpmath.almosteq(value, mpmath.sqrt(2), rel_eps=mpf("1e-29"))
        assert mpmath.nstr(value, 30) == "1.41421356237309504880168872421"

    def test_case3_cubic_factor(self):
        # oracle: high-precision sqrt(3)
        value = quad(389, -225, 3).evalf(30)
        with working_dps(30):
            oracle = 389 - 225 * mpmath.sqrt(3)
            assert mpmath.almosteq(value, oracle, rel_eps=mpf("1e-28"))
            assert mpmath.nstr(oracle, 12) == "-0.711431702997"

    def test_exact_half(self):
        assert quad(Fraction(1, 2)).evalf(30) == mpf("0.5")

    def test_precision_floor_enforced(self):
        with pytest.raises(ValueError):
            quad(1).evalf(10)

    def test_product_consistency(self):
        # evalf(a*b) matches evalf(a)*evalf(b) to 1e-28 relative
        rng = random.Random(23)
        with working_dps(30):
            for _ in range(100):
                a = quad(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 99)), 2)
                b = quad(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 99)), 2)
                exact = (a * b).evalf(30)
                split = a.evalf(30) * b.evalf(30)
                if exact == 0:
                    assert abs(split) < mpf("1e-28")
                else:
                    assert abs(exact - split) / abs(exact) < mpf("1e-28")


class TestSqrtRational:
    def test_perfect_square(self):
        assert sqrt_rational(Fraction(9, 4)) == quad(Fraction(3, 2))

    def test_general(self):
        root = sqrt_rational(Fraction(1, 2))
        assert root == quad(0, Fraction(1, 2), 2)
        assert root * root == quad(Fraction(1, 2))

    def test_eight(self):
        assert sqrt_rational(8) == quad(0, 2, 2)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sqrt_rational(Fraction(-1, 4))

    def test_fraction_to_mpf_exact(self):
        with working_dps(30):
            assert fraction_to_mpf(Fraction(1, 4)) == mpf("0.25")
