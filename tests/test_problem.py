from fractions import Fraction

import mpmath
import pytest
from mpmath.libmp import mpf_mul_int

from bhhpm import BHProblem, case_preset, working_dps
from bhhpm.errors import ProblemDomainError
from bhhpm.scalars import RND, to_value

from conftest import FRONTS, STEEP_FRONTS, quad


def discriminant(p: BHProblem):
    """alpha^2 + 4*beta*(n + 1), the square of the front's rho."""
    return p.alpha * p.alpha + 4 * (p.n + 1) * p.beta


class TestPresets:
    def test_case1(self):
        p = case_preset(1)
        assert (p.alpha, p.beta, p.gamma, p.n, p.branch) == (0, 1, 1, 1, "upper")
        assert discriminant(p) == 8
        assert p.radicand == 2
        assert p.kappa == quad(0, Fraction(1, 4), 2)       # sqrt(2)/4
        assert p.speed == quad(0, Fraction(1, 2), 2)       # sqrt(2)/2
        assert p.gamma * Fraction(1, 2) == Fraction(1, 2)  # the amplitude
        assert p.sign == 1

    def test_case2(self):
        p = case_preset(2)
        assert (p.alpha, p.beta, p.gamma, p.branch) == (-1, 1, 1, "lower")
        assert discriminant(p) == 9
        assert p.radicand == 1
        assert p.kappa == Fraction(1, 4)
        assert p.speed == Fraction(-3, 2)
        assert p.sign == -1

    def test_case3(self):
        p = case_preset(3)
        assert (p.alpha, p.beta, p.gamma, p.branch) == (-2, 1, 3, "lower")
        assert discriminant(p) == 12
        assert p.radicand == 3
        assert p.kappa == quad(Fraction(-3, 4), Fraction(3, 4), 3)     # (3*sqrt(3)-3)/4
        assert p.speed == quad(Fraction(-5, 2), Fraction(1, 2), 3)     # (sqrt(3)-5)/2
        assert p.gamma * Fraction(1, 2) == Fraction(3, 2)  # the amplitude

    def test_unknown_preset(self):
        with pytest.raises(ProblemDomainError):
            case_preset(4)


class TestDiscriminantRoot:
    """kappa and the speed take rho = sqrt(p/q) = s*sqrt(d)/q, where p*q = s^2*d."""

    @pytest.mark.parametrize("problem,disc,radicand,kappa,speed", [
        (BHProblem(0, Fraction(1, 16), 1), Fraction(1, 2), 2,
         quad(0, Fraction(1, 16), 2), quad(0, Fraction(1, 8), 2)),     # rho = sqrt(2)/2
        (BHProblem(Fraction(3, 2), 0, 1, branch="lower"), Fraction(9, 4), 1,
         Fraction(3, 8), Fraction(3, 4)),                               # rho = 3/2
    ], ids=["surd", "square"])
    def test_root_over_the_denominator(self, problem, disc, radicand, kappa, speed):
        assert (discriminant(problem), problem.radicand) == (disc, radicand)
        assert problem.kappa == kappa
        assert problem.speed == speed


class TestRate:
    """rate = 2*s*kappa, the d(sigma)/dx = rate*sigma*(1 - sigma) of the front."""

    @pytest.mark.parametrize("front", [*FRONTS, *STEEP_FRONTS])
    def test_rate_is_twice_the_signed_steepness(self, front):
        p = FRONTS.get(front) or STEEP_FRONTS[front]
        assert p.rate == p.kappa * (2 * p.sign)
        for digits in (30, 45, 200):  # doubling and negation commute with rounding
            with working_dps(digits):
                twice = mpf_mul_int(to_value(p.kappa), 2 * p.sign, mpmath.mp.prec, RND)
                assert to_value(p.rate) == twice


class TestValidation:
    def test_coercion_from_plain_numbers(self):
        p = BHProblem(alpha=0, beta=1, gamma=Fraction(1, 2), n=2)
        assert p.gamma == Fraction(1, 2)
        assert discriminant(p) == 12

    def test_n_positive(self):
        with pytest.raises(ProblemDomainError):
            BHProblem(alpha=0, beta=1, gamma=1, n=0)

    @pytest.mark.parametrize("n", [1.5, "1"])
    def test_n_integer(self, n):
        with pytest.raises(ProblemDomainError, match=f"got {n!r}"):
            BHProblem(alpha=0, beta=1, gamma=1, n=n)

    def test_beta_nonnegative(self):
        with pytest.raises(ProblemDomainError):
            BHProblem(alpha=0, beta=-1, gamma=1)

    def test_bad_branch(self):
        with pytest.raises(ProblemDomainError):
            BHProblem(alpha=0, beta=1, gamma=1, branch="sideways")

    def test_uncertifiable_radicand_rejected(self):
        # 8*beta = 1000003*1000033*1000037 has no prime factor below 10**6
        with pytest.raises(ProblemDomainError, match="cannot certify"):
            BHProblem(alpha=0, beta=Fraction(1000073001431003663, 8), gamma=1)

    def test_irrational_discriminant_rejected(self):
        with pytest.raises(ProblemDomainError):
            BHProblem(alpha=quad(1, 1, 2), beta=1, gamma=1)

    def test_gamma_outside_unit_interval_accepted(self):
        # the benchmark family itself uses gamma = 3
        p = BHProblem(alpha=-2, beta=1, gamma=3, branch="lower")
        assert p.gamma == 3

    def test_foreign_radical_rejected(self):
        # gamma in Q(sqrt(5)) cannot join a sqrt(2)-radicand problem
        with pytest.raises(ProblemDomainError):
            BHProblem(alpha=0, beta=1, gamma=quad(1, 1, 5))

    def test_mixed_radicands_name_both_keys(self):
        # alpha and beta carry different square roots: the error names both
        # keys before the discriminant would mix sqrt(2) and sqrt(3)
        with pytest.raises(ProblemDomainError,
                           match=r"^beta carries sqrt\(3\), but alpha carries sqrt\(2\)$"):
            BHProblem(alpha=quad(1, 1, 2), beta=quad(1, 1, 3), gamma=1)

    def test_matching_radical_accepted(self):
        p = BHProblem(alpha=0, beta=1, gamma=quad(1, 1, 2))
        assert p.radicand == 2
        assert p.kappa.radicand == 2


class TestHashing:
    def test_key_is_hashed_once_per_problem(self, monkeypatch):
        # equal problems hash alike, and a second hash of a problem builds and
        # hashes its key tuple no more (the series memo hashes it every step)
        built = []
        key = BHProblem._key
        monkeypatch.setattr(BHProblem, "_key", lambda p: built.append(p) or key(p))
        p, q = case_preset(1), BHProblem(alpha=0, beta=1, gamma=1)
        first = hash(p)
        assert hash(p) == hash(q) == hash(q) == first
        assert len(built) == 2
        assert p == q and {p: "cached"}[q] == "cached"
