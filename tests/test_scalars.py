import math
import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from bhhpm import (
    BHProblem,
    QuadraticNumber,
    case_preset,
    sqrt_rational,
    squarefree_decompose,
    working_dps,
)
from bhhpm.errors import AlgebraDomainError
from bhhpm.scalars import surd_to_mpf, to_mpf


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
         (12, (2, 3)), (360, (6, 10)), (49, (7, 1)), (10**6 + 3, (1, 10**6 + 3)),
         # two primes above the trial bound: certified, since the cofactor is below p**3
         (1000003 * 1000033, (1, 1000003 * 1000033))],
    )
    def test_known(self, n, expected):
        assert squarefree_decompose(n) == expected

    def test_large_perfect_square(self):
        p = 10**6 + 3
        assert squarefree_decompose(p * p) == (p, 1)

    def test_undecidable_rejected(self):
        # three primes above 10**6: the cofactor outgrows the trial bound
        with pytest.raises(ValueError):
            squarefree_decompose((10**6 + 3) * (10**6 + 33) * (10**6 + 37))

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
                squarefree_decompose(1000073001431003663)


class TestQuadraticNumber:
    def test_normalization(self):
        assert quad(2, 3, 1) == quad(5)
        assert quad(2, 0, 7) == quad(2)
        assert quad(0, Fraction(1, 2), 8) == quad(0, 1, 2)  # sqrt(8)/2 = sqrt(2)
        assert quad(1, 1, 2).radicand == 2
        assert quad(1, 1, 0) == 1 and quad(0, 5, 0).is_zero()  # sqrt(0) = 0
        assert quad(0, 1, 0) * quad(1, 1, 3) == 0

    def test_parts_are_fractions(self):
        # ints and floats are converted; Fractions are kept as given
        half = Fraction(1, 2)
        for q in (QuadraticNumber(1, 2, 3), QuadraticNumber(0.5, 0.25, 3)):
            assert type(q.rational) is Fraction and type(q.radical) is Fraction
        assert QuadraticNumber(0.5, 0.25, 3) == quad(half, Fraction(1, 4), 3)
        assert QuadraticNumber(half, half, 3).rational is half

    def test_hash_is_computed_once(self, monkeypatch):
        # equal values hash alike (ints and Fractions included), and a second
        # hash of a value hashes none of its Fractions again
        calls = []
        fraction_hash = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__", lambda f: calls.append(f) or fraction_hash(f))
        for q in (quad(Fraction(-3, 7)), quad(2, 3, 1), quad(Fraction(1, 2), Fraction(-5, 3), 3)):
            first = hash(q)
            calls.clear()
            assert hash(q) == first and not calls
        assert hash(quad(Fraction(-3, 7))) == hash(Fraction(-3, 7))
        assert hash(quad(2, 3, 1)) == hash(quad(5)) == hash(5) == hash(Fraction(5))
        assert hash(quad(0, Fraction(1, 2), 8)) == hash(quad(0, 1, 2))
        assert {Fraction(3, 4): "x"}[quad(Fraction(3, 4))] == "x"

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
        value = quad(2, -1, 2).inverse()
        assert value == quad(1, Fraction(1, 2), 2)
        assert quad(2, -1, 2) * quad(1, Fraction(1, 2), 2) == quad(1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            quad(0).inverse()

    def test_mixed_radicands_rejected(self):
        with pytest.raises(AlgebraDomainError):
            quad(0, 1, 2) + quad(0, 1, 3)
        with pytest.raises(AlgebraDomainError):
            quad(0, 1, 2) * quad(0, 1, 5)

    def test_rational_mixes_with_any_radicand(self):
        assert quad(2) * quad(0, 1, 3) == quad(0, 2, 3)
        assert quad(1, 1, 2) + quad(3) == quad(4, 1, 2)

    def test_sign(self):
        assert quad(0).sign() == 0
        assert quad(-3).sign() == -1
        assert quad(0, 1, 2).sign() == 1
        assert quad(-4, 3, 3).sign() == 1      # 3*sqrt(3) = 5.19... > 4
        assert quad(-6, 3, 3).sign() == -1     # 3*sqrt(3) < 6
        assert quad(4, -2, 3).sign() == 1      # 4 > 2*sqrt(3) = 3.46...
        rng = random.Random(3)
        with working_dps(30):
            for _ in range(100):
                q = quad(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                         rng.choice([2, 3, 5, 999950891]))
                numeric = to_mpf(q)
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
    """``to_mpf`` of exact values under ``working_dps``."""

    def test_sqrt2_30_digits(self):
        with working_dps(30):
            value = to_mpf(quad(0, 1, 2))
            assert mpmath.almosteq(value, mpmath.sqrt(2), rel_eps=mpf("1e-29"))
        assert mpmath.nstr(value, 30) == "1.41421356237309504880168872421"

    def test_case3_cubic_factor(self):
        # oracle: high-precision sqrt(3)
        with working_dps(30):
            value = to_mpf(quad(389, -225, 3))
            oracle = 389 - 225 * mpmath.sqrt(3)
            assert mpmath.almosteq(value, oracle, rel_eps=mpf("1e-28"))
            assert mpmath.nstr(oracle, 12) == "-0.711431702997"

    def test_exact_half(self):
        with working_dps(30):
            assert to_mpf(quad(Fraction(1, 2))) == mpf("0.5")

    def test_product_consistency(self):
        # to_mpf(a*b) matches to_mpf(a)*to_mpf(b) to 1e-28 relative
        rng = random.Random(23)
        with working_dps(30):
            for _ in range(100):
                a = quad(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 99)), 2)
                b = quad(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                         Fraction(rng.randint(-99, 99), rng.randint(1, 99)), 2)
                exact = to_mpf(a * b)
                split = to_mpf(a) * to_mpf(b)
                if exact == 0:
                    assert abs(split) < mpf("1e-28")
                else:
                    assert abs(exact - split) / abs(exact) < mpf("1e-28")

    @pytest.mark.parametrize("alpha", [10**8, 31622])
    def test_slow_front_kappa_keeps_its_digits(self, alpha):
        # kappa = (sqrt(alpha^2 + 7) - alpha)/8: a + b*sqrt(d) cancels to ~1/alpha;
        # summing the parts directly lost 5.5e-27 (alpha = 1e8) and 2.9e-34
        kappa = BHProblem(alpha=alpha, beta=Fraction(7, 8), gamma=1).kappa
        assert kappa.rational != 0 and kappa.radical != 0
        a, b = kappa.rational, kappa.radical
        with mpmath.workdps(200):
            reference = (mpf(a.numerator) / a.denominator
                         + mpf(b.numerator) / b.denominator * mpmath.sqrt(kappa.radicand))
        with working_dps(30):
            value = to_mpf(kappa)
        with mpmath.workdps(200):
            assert abs(value - reference) / reference < mpf("1e-38")

    def test_memo_keeps_precisions_apart(self):
        # sqrt(d) and each constant are memoised per working precision: every
        # context must get its own rounding, never one made in another context
        kappa = case_preset(3).kappa  # (3*sqrt(3) - 3)/4
        w = math.lcm(kappa.rational.denominator, kappa.radical.denominator)
        u, v = int(kappa.rational * w), int(kappa.radical * w)

        def fresh(u, v):  # surd_to_mpf's two routes, sqrt(3) computed anew
            root = v * mpmath.sqrt(3)
            return u + root if u * v >= 0 else (u * u - v * v * 3) / (u - root)

        for digits in (30, 80, 30):
            with working_dps(digits):
                assert to_mpf(kappa) == fresh(u, v) / w
                assert surd_to_mpf(u, v, 3) == fresh(u, v)
                assert surd_to_mpf(-u, v, 3) == fresh(-u, v)
        with working_dps(80):
            value = to_mpf(kappa)
        with mpmath.workdps(200):
            assert abs(value - fresh(u, v) / w) / value < mpf("1e-78")


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
            assert to_mpf(Fraction(1, 4)) == mpf("0.25")
