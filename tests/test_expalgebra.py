"""The profile algebra of the series engine: polynomials over Q(sqrt(d)) in
the logistic variable sigma of E = exp(kappa*x), as ``bhhpm.hpm`` adds,
scales, multiplies, differentiates, evaluates and prints them."""

import random
from fractions import Fraction

import mpmath
from mpmath import mpf

from bhhpm import BHProblem, SeriesTerm, case_preset, run_hpm, working_dps
from bhhpm.hpm import _closed_form, _combine, _dx, _trim

from conftest import add, mul, quad, random_poly, sigma_value

KAPPA = quad(0, Fraction(1, 4), 2)  # sqrt(2)/4, the steepest benchmark rate
#: Both branches of the alpha = 0, beta = gamma = 1 front, each with kappa = KAPPA.
FRONTS = {1: case_preset(1), -1: BHProblem(alpha=0, beta=1, gamma=1, branch="lower")}
FRONT = (quad(0), quad(1))          # sigma: E^2/(E^2 + 1), or 1/(E^2 + 1)
ONE_MINUS = (quad(1), quad(-1))     # 1 - sigma


def rate(sign: int):
    return KAPPA * (2 * sign)


def value(p, x, sign: int = 1, digits: int = 30):
    return sigma_value(p, FRONTS[sign], x, digits)


class TestSigmaPoly:
    def test_zero_coefficients_dropped(self):
        assert _trim([quad(3), quad(0), quad(0)]) == (quad(3),)
        assert _combine((1, FRONT), (-1, FRONT)) == ()

    def test_arithmetic(self):
        assert add(FRONT, ONE_MINUS) == (quad(1),)
        assert mul(FRONT, ONE_MINUS) == (quad(0), quad(1), quad(-1))
        assert mul(FRONT, ()) == ()

    def test_diff(self):
        # d/dx sigma^2 = 2*sigma*rate*sigma*(1 - sigma)
        r = rate(1)
        assert _dx(mul(FRONT, FRONT), r) == (quad(0), quad(0), r * 2, r * -2)


class TestCanonicalForm:
    def test_denominator_starts_at_zero_and_monic(self):
        assert str(SeriesTerm(FRONT, 0, 1)) == "(E^2)/(E^2 + 1)"
        assert str(SeriesTerm(FRONT, 0, -1)) == "(1)/(E^2 + 1)"
        rng = random.Random(3)
        for _ in range(20):
            p = random_poly(rng, nonzero=True)
            _, den = _closed_form(p, rng.choice((1, -1)))
            assert len(den) == len(p) and den[0] == den[-1] == 1

    def test_zero_is_zero_over_one(self):
        zero = SeriesTerm((), 2, 1)
        assert zero.is_zero and str(zero) == "0"
        assert value((), 1) == 0

    def test_monic_normalization(self):
        term = SeriesTerm((quad(0), quad(Fraction(3, 2))), 0, 1)
        assert str(term) == "(3/2*E^2)/(E^2 + 1)"

    def test_lowest_terms(self):
        # N(E^2)/(E^2 + 1)^m has no common factor: N(-1) = +/-p_m != 0
        rng = random.Random(7)
        for _ in range(40):
            p = random_poly(rng, nonzero=True)
            sign = rng.choice((1, -1))
            num, _ = _closed_form(p, sign)
            at_minus_one = sum((c * (-1) ** i for i, c in enumerate(num)), quad(0))
            top = len(p) - 1
            assert at_minus_one == (p[-1] * (-1) ** top if sign > 0 else p[-1])
            assert at_minus_one != 0


class TestArithmetic:
    def test_additive_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_poly(rng)
            assert add(a, ()) == a

    def test_square_of_front(self):
        square = mul(FRONT, FRONT)
        assert square == (quad(0), quad(0), quad(1))
        assert str(SeriesTerm(square, 0, 1)) == "(E^4)/(E^4 + 2*E^2 + 1)"

    def test_triple_product_pointwise(self):
        # (1 - u0)(u0 - 1) u0 evaluated against the pointwise product
        rng = random.Random(17)
        combo = mul(mul(ONE_MINUS, _combine((-1, ONE_MINUS))), FRONT)
        with working_dps(30):
            for _ in range(10):
                x = Fraction(rng.randint(-280, 280), 100)
                lhs = value(combo, x)
                u = value(FRONT, x)
                rhs = (1 - u) * (u - 1) * u
                assert mpmath.almosteq(lhs, rhs, rel_eps=mpf("1e-25"), abs_eps=mpf("1e-25"))

    def test_ring_axioms_random(self):
        rng = random.Random(29)
        for _ in range(15):
            a, b, c = (random_poly(rng, 2) for _ in range(3))
            assert add(a, b) == add(b, a)
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


class TestDifferentiation:
    def test_constant_derivative_is_zero(self):
        assert _dx((quad(Fraction(1, 2)),), rate(1)) == ()

    def test_logistic_identity_exact(self):
        # u0' = 2*kappa*s*u0*(1 - u0) for u0 = sigma on branch s = +1 or -1
        for s in (1, -1):
            assert _dx(FRONT, rate(s)) == _combine((rate(s), mul(FRONT, ONE_MINUS)))

    def test_second_derivative_against_finite_difference(self):
        u2 = _dx(_dx(FRONT, rate(1)), rate(1))
        with working_dps(40):
            h = mpf("1e-6")
            x = mpf(1)
            f = lambda z: value(FRONT, z, digits=40)
            fd = (-f(x + 2*h) + 16*f(x + h) - 30*f(x) + 16*f(x - h) - f(x - 2*h)) / (12 * h * h)
            exact = value(u2, x, digits=40)
            assert abs(fd - exact) / abs(exact) < mpf("1e-8")

    def test_derivative_vs_finite_difference_random(self):
        # 5-point stencil, step 1e-6, 10 points in [-3, 3] per function
        rng = random.Random(101)
        with working_dps(40):
            h = mpf("1e-6")
            for i in range(50):
                sign = 1 if i % 2 else -1
                p = random_poly(rng)
                d = _dx(p, rate(sign))
                f = lambda z: value(p, z, sign, 40)
                for _ in range(10):
                    x = mpf(rng.randint(-300, 300)) / 100
                    fd = (-f(x + 2*h) + 8*f(x + h) - 8*f(x - h) + f(x - 2*h)) / (12 * h)
                    exact = value(d, x, sign, 40)
                    scale = max(mpf(1), abs(f(x)), abs(exact))
                    assert abs(fd - exact) <= mpf("1e-8") * scale

    def test_derivative_keeps_denominator_compact(self):
        der = FRONT
        for _ in range(4):
            der = _dx(der, rate(1))
        # each derivative raises the sigma-degree, hence the power of
        # (E^2 + 1) in the closed form, by exactly one
        _, den = _closed_form(der, 1)
        assert 2 * (len(den) - 1) <= 10


class TestEvaluation:
    def test_front_at_zero(self):
        assert value(FRONT, 0) == mpf("0.5")

    def test_front_at_one_tanh_oracle(self):
        # e^a/(e^a + e^-a) = (1 + tanh a)/2 with a = kappa*x
        with working_dps(30):
            a = mpmath.sqrt(2) / 4
            oracle = (1 + mpmath.tanh(a)) / 2
            assert mpmath.almosteq(value(FRONT, 1), oracle, rel_eps=mpf("1e-26"))
            assert mpmath.almosteq(value(FRONT, 1, -1), 1 - oracle, rel_eps=mpf("1e-26"))

    def test_first_term_coefficient_at_zero(self):
        # -(1/2)/(E+E^-1)^2 = -(1/2)*sigma*(1 - sigma); at x=0 gives -1/8
        c1 = _combine((Fraction(-1, 2), mul(FRONT, ONE_MINUS)))
        assert value(c1, 0) == mpf("-0.125")

    def test_both_tails_keep_their_digits(self):
        # sigma tends to 0 on one side of each front and to 1 on the other
        for cid in (1, 3):
            expansion = run_hpm(case_preset(cid), 4)
            for x in (-200, -60, 60, 200):
                low, high = expansion.profiles_at(x, 30), expansion.profiles_at(x, 80)
                with working_dps(30):
                    for a, b in zip(low, high):
                        assert abs(a - b) <= mpf("1e-35") * abs(b)

    def test_rendering_mentions_structure(self):
        text = str(SeriesTerm(FRONT, 0, 1))
        assert "E^2" in text and "/" in text
