from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from mpmath import mpf

from bhhpm import BHProblem, case_preset, deng_wave, initial_guess, run_hpm, working_dps
from bhhpm.errors import ContractViolation, UnsupportedProblemError
from bhhpm.expalgebra import ExpRational, LaurentPoly
from bhhpm.hpm import HPMExpansion, TimePolynomial

from conftest import cosh_kernel, quad, reference_terms


class TestInitialGuess:
    def test_case1_front(self):
        p = case_preset(1)
        u0 = initial_guess(p)
        assert u0 == ExpRational(LaurentPoly.monomial(1), cosh_kernel(), p.kappa)
        assert p.kappa == quad(0, Fraction(1, 4), 2)

    def test_case2_front(self):
        p = case_preset(2)
        u0 = initial_guess(p)
        assert u0 == ExpRational(LaurentPoly.monomial(-1), cosh_kernel(), p.kappa)
        assert p.kappa == Fraction(1, 4)

    def test_case3_front(self):
        p = case_preset(3)
        u0 = initial_guess(p)
        expected = ExpRational(
            LaurentPoly.monomial(-1, 3), cosh_kernel(), p.kappa
        )
        assert u0 == expected
        assert p.kappa == quad(Fraction(-3, 4), Fraction(3, 4), 3)
        assert p.radicand == 3

    def test_matches_wave_at_time_zero(self):
        with working_dps(30):
            for cid in (1, 2, 3):
                p = case_preset(cid)
                u0 = initial_guess(p)
                wave = deng_wave(p)
                for x in (-2, Fraction(-1, 2), 0, 1, Fraction(5, 2)):
                    a = u0.eval_at(x, 30)
                    b = wave.eval_at(x, 0, 30)
                    assert mpmath.almosteq(a, b, rel_eps=mpf("1e-25"))

    def test_n_above_one_rejected(self):
        p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2)
        with pytest.raises(UnsupportedProblemError):
            initial_guess(p)

    def test_nonzero_shift_rejected(self):
        p = BHProblem(alpha=0, beta=1, gamma=1, x0=quad(1))
        with pytest.raises(UnsupportedProblemError):
            initial_guess(p)


class TestTimePolynomial:
    def setup_method(self):
        self.p = case_preset(1)
        self.u0 = initial_guess(self.p)
        self.k = self.p.kappa

    def test_trimming(self):
        zero = ExpRational.zero(self.k)
        tp = TimePolynomial([self.u0, zero, zero], self.k)
        assert tp.degree == 0

    def test_eval(self):
        tp = TimePolynomial([self.u0, self.u0.scaled(2)], self.k)
        with working_dps(30):
            u = self.u0.eval_at(1, 30)
            value = tp.eval_at(1, Fraction(1, 2), 30)
            assert mpmath.almosteq(value, u * 2, rel_eps=mpf("1e-26"))


class TestRecursion:
    def test_rhs_order_one_matches_operator(self):
        # first correction equation: u0'' + u0*(1-u0)*(u0-1)
        p = case_preset(1)
        u0 = initial_guess(p)
        expansion = HPMExpansion.start(p)
        rhs = expansion.rhs_order(1)
        one = ExpRational.constant(1, p.kappa)
        manual = u0.diff_x().diff_x() + u0 * (one - u0) * (u0 - one)
        assert rhs.degree == 0
        assert rhs.coefficient(0) == manual

    def test_rhs_order_two_case3_expanded_form(self):
        # second correction for the steep-front benchmark:
        # v1'' + 2*v0*v1' + 2*v1*v0' + 8*v0*v1 - 3*v1 - 3*v1*v0^2
        p = case_preset(3)
        expansion = HPMExpansion.start(p).advanced()
        v0 = expansion.terms[0].coefficient(0)
        c1 = expansion.terms[1].coefficient(1)
        rhs = expansion.rhs_order(2)
        manual = (
            c1.diff_x().diff_x()
            + (v0 * c1.diff_x()).scaled(2)
            + (c1 * v0.diff_x()).scaled(2)
            + (v0 * c1).scaled(8)
            - c1.scaled(3)
            - (c1 * v0 * v0).scaled(3)
        )
        assert rhs.degree == 1
        assert rhs.coefficient(0).is_zero
        assert rhs.coefficient(1) == manual

    def test_rhs_order_zero_rejected(self):
        expansion = HPMExpansion.start(case_preset(1))
        with pytest.raises(ContractViolation):
            expansion.rhs_order(0)

    def test_rhs_needs_prior_terms(self):
        expansion = HPMExpansion.start(case_preset(1))
        with pytest.raises(ContractViolation):
            expansion.rhs_order(2)

    def test_steady_state_zero_profile(self):
        # v0 = 0 is a reaction root: every correction vanishes
        for cid in (1, 2, 3):
            p = case_preset(cid)
            v0 = ExpRational.zero(p.kappa)
            expansion = HPMExpansion.from_initial(p, v0)
            for _ in range(4):
                expansion = expansion.advanced()
            assert all(term.is_zero for term in expansion.terms[1:])

    def test_steady_state_gamma_profile(self):
        p = case_preset(3)
        v0 = ExpRational.constant(p.gamma, p.kappa)
        expansion = HPMExpansion.from_initial(p, v0)
        for _ in range(3):
            expansion = expansion.advanced()
        assert all(term.is_zero for term in expansion.terms[1:])

    def test_steady_state_with_higher_n(self):
        # exercises the general power-convolution path
        p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2)
        v0 = ExpRational.zero(p.kappa)
        expansion = HPMExpansion.from_initial(p, v0)
        for _ in range(3):
            expansion = expansion.advanced()
        assert all(term.is_zero for term in expansion.terms[1:])

    def test_explicit_terms_cannot_advance(self, expansions):
        # evaluation only: no series state travels with explicit terms
        expansion = HPMExpansion(case_preset(1), expansions[1].terms[:3])
        assert expansion.partial_sum_at(3, 0, 0, 30) == expansions[1].partial_sum_at(3, 0, 0, 30)
        with pytest.raises(ContractViolation):
            expansion.advanced()
        with pytest.raises(ContractViolation):
            expansion.rhs_order(1)

    def test_non_constant_initial_profile_rejected(self):
        p = case_preset(2)
        with pytest.raises(UnsupportedProblemError):
            HPMExpansion.from_initial(p, initial_guess(p))

    def test_run_hpm_validates_order(self):
        with pytest.raises(ContractViolation):
            run_hpm(case_preset(1), 0)


class TestGoldenTerms:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_first_three_terms_match_closed_forms(self, cid, expansions):
        expansion = expansions[cid]
        expected = reference_terms(cid)
        for k in (1, 2, 3):
            assert expansion.terms[k] == expected[k - 1], f"case {cid}, term {k}"

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_terms_are_t_monomials(self, cid, expansions):
        for k, term in enumerate(expansions[cid].terms):
            assert term.degree == k
            nonzero = [j for j in range(term.degree + 1) if not term.coefficient(j).is_zero]
            assert nonzero == [k] or (k == 0 and nonzero == [0])

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_terms_vanish_at_time_zero(self, cid, expansions):
        for term in expansions[cid].terms[1:]:
            assert term.coefficient(0).is_zero


class TestTermsFixture:
    # str(v_k), k = 0..10, recorded from the rational-function engine that
    # extracted p-coefficients by Cauchy products of ExpRational profiles
    FIXTURE = Path(__file__).parent / "data" / "terms_k10.txt"

    def test_terms_match_recorded_closed_forms(self):
        lines = []
        for cid in (1, 2, 3):
            terms = run_hpm(case_preset(cid), 10).terms
            for k, term in enumerate(terms):
                lines.append(f"case {cid} v_{k} = {term}")
                profile = term.coefficient(k)
                assert profile.reduced() == profile, f"case {cid}, term {k}"
        expected = self.FIXTURE.read_text().splitlines()
        assert len(lines) == len(expected) == 33
        for got, want in zip(lines, expected):
            assert got == want


class TestPartialSums:
    def test_initial_value_preserved(self, expansions):
        # S_m(x, 0) = u(x, 0) for every m
        with working_dps(30):
            for cid in (1, 2, 3):
                expansion = expansions[cid]
                u0 = expansion.terms[0].coefficient(0)
                for m in (1, 3, 6):
                    for x in (-1, 0, 2):
                        a = expansion.partial_sum_at(m, x, 0, 30)
                        b = u0.eval_at(x, 30)
                        assert mpmath.almosteq(a, b, rel_eps=mpf("1e-27"))

    def test_case1_two_terms_at_origin(self, expansions):
        # 1/2 - t/8 at t = 1/10 -> 0.4875
        value = expansions[1].partial_sum_at(2, 0, Fraction(1, 10), 30)
        with working_dps(30):
            assert mpmath.almosteq(value, mpf("0.4875"), rel_eps=mpf("1e-35"))

    def test_out_of_range_m(self, expansions):
        with pytest.raises(ContractViolation):
            expansions[1].partial_sum_at(8, 0, 0, 30)
        with pytest.raises(ContractViolation):
            expansions[1].partial_sum_at(0, 0, 0, 30)

    def test_partial_sum_polynomial_agrees(self, expansions):
        expansion = expansions[2]
        total = expansion.partial_sum(4)
        with working_dps(30):
            x, t = Fraction(3, 2), Fraction(1, 5)
            a = total.eval_at(x, t, 30)
            b = expansion.partial_sum_at(4, x, t, 30)
            assert mpmath.almosteq(a, b, rel_eps=mpf("1e-26"))


class TestTaylorMatching:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_coefficients_match_wave_taylor(self, cid, expansions):
        # t^k coefficient of v_k against the exact wave's Taylor data
        expansion = expansions[cid]
        wave = deng_wave(case_preset(cid))
        with working_dps(30):
            for x in (-1, Fraction(1, 2), 2):
                oracle = wave.time_taylor_coefficients(x, 4, 30)
                for k in range(1, 5):
                    sym = expansion.terms[k].coefficient(k).eval_at(x, 30)
                    if oracle[k] == 0:
                        assert sym == 0
                    else:
                        assert abs(sym - oracle[k]) / abs(oracle[k]) < mpf("1e-25")

    def test_residual_decreases_with_order(self, expansions):
        # numeric PDE residual of S_m at (1, 1/10) drops monotonically
        from bhhpm import pde_residual

        for cid in (1, 2, 3):
            expansion = expansions[cid]
            problem = case_preset(cid)
            residuals = []
            for m in range(1, 7):
                func = lambda x, t, digits: expansion.partial_sum_at(m, x, t, digits)
                residuals.append(
                    pde_residual(func, problem, 1, Fraction(1, 10), digits=30)
                )
            assert all(residuals[i] > residuals[i + 1] for i in range(5))
