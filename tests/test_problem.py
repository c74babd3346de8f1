from fractions import Fraction

import pytest

from bhhpm import BHProblem, case_preset
from bhhpm.errors import ProblemDomainError

from conftest import quad


class TestPresets:
    def test_case1(self):
        p = case_preset(1)
        assert (p.alpha, p.beta, p.gamma, p.n, p.branch) == (0, 1, 1, 1, "upper")
        assert p.discriminant == 8
        assert p.radicand == 2
        assert p.rho == quad(0, 2, 2)                      # 2*sqrt(2)
        assert p.kappa == quad(0, Fraction(1, 4), 2)       # sqrt(2)/4
        assert p.speed == quad(0, Fraction(1, 2), 2)       # sqrt(2)/2
        assert p.amplitude == Fraction(1, 2)
        assert p.sign == 1

    def test_case2(self):
        p = case_preset(2)
        assert (p.alpha, p.beta, p.gamma, p.branch) == (-1, 1, 1, "lower")
        assert p.discriminant == 9
        assert p.radicand == 1
        assert p.rho == 3
        assert p.kappa == Fraction(1, 4)
        assert p.speed == Fraction(-3, 2)
        assert p.sign == -1

    def test_case3(self):
        p = case_preset(3)
        assert (p.alpha, p.beta, p.gamma, p.branch) == (-2, 1, 3, "lower")
        assert p.discriminant == 12
        assert p.radicand == 3
        assert p.rho == quad(0, 2, 3)                                  # 2*sqrt(3)
        assert p.kappa == quad(Fraction(-3, 4), Fraction(3, 4), 3)     # (3*sqrt(3)-3)/4
        assert p.speed == quad(Fraction(-5, 2), Fraction(1, 2), 3)     # (sqrt(3)-5)/2
        assert p.amplitude == Fraction(3, 2)

    def test_unknown_preset(self):
        with pytest.raises(ProblemDomainError):
            case_preset(4)


class TestValidation:
    def test_coercion_from_plain_numbers(self):
        p = BHProblem(alpha=0, beta=1, gamma=Fraction(1, 2), n=2)
        assert p.gamma == Fraction(1, 2)
        assert p.discriminant == 12

    def test_n_positive(self):
        with pytest.raises(ProblemDomainError):
            BHProblem(alpha=0, beta=1, gamma=1, n=0)

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
