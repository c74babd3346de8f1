from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from mpmath import mpf

from bhhpm import BHProblem, case_preset, deng_wave, max_taylor_deviation, run_hpm, working_dps
from bhhpm.errors import ContractViolation, ProblemDomainError, UnsupportedProblemError
from bhhpm.hpm import HPMExpansion, SeriesTerm, _closed_form, _lattice, _operator_factors
from bhhpm.scalars import QuadraticNumber

from conftest import matches_reference, quad, reference_terms


def initial_term(problem: BHProblem) -> SeriesTerm:
    return HPMExpansion.start(problem).terms[0]


class TestInitialGuess:
    def test_case1_front(self):
        p = case_preset(1)
        u0 = initial_term(p)
        assert u0 == SeriesTerm((quad(0), quad(1)), 0, 1)
        assert str(u0) == "(E^2)/(E^2 + 1)"
        assert p.kappa == quad(0, Fraction(1, 4), 2)

    def test_case2_front(self):
        p = case_preset(2)
        u0 = initial_term(p)
        assert u0 == SeriesTerm((quad(0), quad(1)), 0, -1)
        assert str(u0) == "(1)/(E^2 + 1)"
        assert p.kappa == Fraction(1, 4)

    def test_case3_front(self):
        p = case_preset(3)
        u0 = initial_term(p)
        assert u0 == SeriesTerm((quad(0), quad(3)), 0, -1)
        assert str(u0) == "(3)/(E^2 + 1)"
        assert p.kappa == quad(Fraction(-3, 4), Fraction(3, 4), 3)
        assert p.radicand == 3

    def test_matches_wave_at_time_zero(self):
        with working_dps(30):
            for cid in (1, 2, 3):
                p = case_preset(cid)
                expansion = HPMExpansion.start(p)
                wave = deng_wave(p)
                for x in (-2, Fraction(-1, 2), 0, 1, Fraction(5, 2)):
                    a = expansion.partial_sum_at(1, x, 0, 30)
                    b = wave.eval_at(x, 0, 30)
                    assert mpmath.almosteq(a, b, rel_eps=mpf("1e-25"))

    def test_n_above_one_rejected(self):
        p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2)
        with pytest.raises(UnsupportedProblemError):
            HPMExpansion.start(p)

    def test_nonzero_shift_matches_oracle(self):
        # x0 only moves sigma's argument to x + x0
        for cid in (1, 2, 3):
            p = case_preset(cid)
            shifts = [quad(Fraction(1, 2)), quad(Fraction(-3, 2)), quad(Fraction(5, 4))]
            if p.radicand > 1:
                shifts.append(quad(1, 1, p.radicand))
            for x0 in shifts:
                shifted = BHProblem(p.alpha, p.beta, p.gamma, p.n, p.branch, x0)
                worst = max_taylor_deviation(run_hpm(shifted, 10), deng_wave(shifted),
                                             (-2, -1, 0, 1, 3), digits=30)
                assert worst <= mpf("1e-25"), (cid, x0, worst)


class TestSeriesTerm:
    def test_eval(self):
        # v_k(x, t) = c_k(x)*t^k, the step from S_k to S_(k+1)
        expansion = run_hpm(case_preset(1), 2)
        with working_dps(30):
            c = expansion.profiles_at(1, 30)[2]
            value = (expansion.partial_sum_at(3, 1, Fraction(1, 2), 30)
                     - expansion.partial_sum_at(2, 1, Fraction(1, 2), 30))
            assert mpmath.almosteq(value, c / 4, rel_eps=mpf("1e-26"))


class TestRecursion:
    def test_run_hpm_validates_order(self):
        with pytest.raises(ContractViolation):
            run_hpm(case_preset(1), 0)


FRONTS = {
    "case1": case_preset(1), "case2": case_preset(2), "case3": case_preset(3),
    "slow": BHProblem(31622, Fraction(7, 8), 1),
    "lower-x0": BHProblem(-1, Fraction(3, 2), Fraction(2, 3), branch="lower", x0=Fraction(7, 3)),
}


class TestIntegerLift:
    """The series step runs on integers from the first call on."""

    @pytest.mark.parametrize("front", FRONTS)
    def test_operator_factors_match_field_arithmetic(self, front):
        p = FRONTS[front]
        rate = p.kappa * (2 * p.sign)
        expected = (rate * rate, -rate * p.alpha * Fraction(1, p.n + 1), p.beta * (1 + p.gamma),
                    -p.beta * p.gamma, -p.beta)
        assert _operator_factors(p) == tuple(_lattice([f], p.radicand) for f in expected)

    def test_series_builds_no_exact_scalars(self, monkeypatch):
        built = []
        quad_init, fraction_new = QuadraticNumber.__init__, Fraction.__new__

        def counting_init(self, *args, **kwargs):
            built.append("QuadraticNumber")
            quad_init(self, *args, **kwargs)

        def counting_new(cls, *args, **kwargs):
            built.append("Fraction")
            return fraction_new(cls, *args, **kwargs)

        problems = [case_preset(c) for c in (1, 2, 3)]
        with monkeypatch.context() as patch:  # undone before the asserts
            patch.setattr(QuadraticNumber, "__init__", counting_init)
            patch.setattr(Fraction, "__new__", staticmethod(counting_new))
            probe = Fraction(1, 2)  # the one value counted: the counter works
            for p in problems:
                run_hpm(p, 10)
        assert probe and built == ["Fraction"]

    def test_operator_factors_formed_once_per_problem(self):
        _operator_factors.cache_clear()
        for _ in range(2):
            for c in (1, 2, 3):
                run_hpm(case_preset(c), 4)  # a new but equal problem each time
        info = _operator_factors.cache_info()
        assert (info.misses, info.hits) == (3, 3 * 8 - 3)


class TestGoldenTerms:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_first_three_terms_match_closed_forms(self, cid, expansions):
        expansion = expansions[cid]
        expected = reference_terms(cid)
        for k in (1, 2, 3):
            term = expansion.terms[k]
            assert term.order == k and term.sign == case_preset(cid).sign
            assert matches_reference(term, expected[k - 1]), f"case {cid}, term {k}"

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_terms_are_t_monomials(self, cid, expansions):
        for k, term in enumerate(expansions[cid].terms):
            assert term.order == k and not term.is_zero

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_terms_vanish_at_time_zero(self, cid, expansions):
        # v_1..v_K add exactly 0 to S_1 at t = 0
        expansion = expansions[cid]
        for m in range(2, expansion.order + 2):
            for x in (-1, 0, 2):
                assert expansion.partial_sum_at(m, x, 0, 30) == expansion.partial_sum_at(1, x, 0, 30)


class TestTermsFixture:
    # str(v_k), k = 0..10, recorded from an earlier engine that extracted
    # p-coefficients by Cauchy products of GCD-reduced rational functions of E
    FIXTURE = Path(__file__).parent / "data" / "terms_k10.txt"

    def test_terms_match_recorded_closed_forms(self):
        lines = []
        for cid in (1, 2, 3):
            terms = run_hpm(case_preset(cid), 10).terms
            for k, term in enumerate(terms):
                lines.append(f"case {cid} v_{k} = {term}")
                num, _ = _closed_form(term.coeffs, term.sign)
                assert sum((c * (-1) ** i for i, c in enumerate(num)), quad(0)) != 0
        expected = self.FIXTURE.read_text().splitlines()
        assert len(lines) == len(expected) == 33
        for got, want in zip(lines, expected):
            assert got == want


def stirling_coefficients(problem: BHProblem, order: int) -> list[list]:
    """c_0..c_order of the front u = gamma*sigma(x - c*t) as sigma-coefficient
    lists, lowest power first, in exact arithmetic and without the engine.

    With d(sigma)/dx = r*sigma*(1 - sigma), r = 2*sign*kappa, the t-Taylor
    coefficients are c_k = gamma*(-c*r)^k/k! * sigma^(k), and the logistic's
    derivatives are sigma^(k) = sum_(j=1..k+1) (-1)^(j-1)*(j-1)!*S(k+1, j)*sigma^j
    with S the Stirling numbers of the second kind (Minai & Williams, Neural
    Networks 6:845, 1993).
    """
    stirling = [[1]]  # S(i, j) = j*S(i-1, j) + S(i-1, j-1)
    for i in range(1, order + 2):
        last = stirling[-1] + [0]
        stirling.append([0] + [j * last[j] + last[j - 1] for j in range(1, i + 1)])
    step = -problem.speed * problem.kappa * (2 * problem.sign)
    scale, series = problem.gamma, []
    for k in range(order + 1):
        if k:
            scale = scale * step * Fraction(1, k)
        coeffs = [quad(0)] + [scale * ((-1) ** (j - 1) * factorial(j - 1) * stirling[k + 1][j])
                              for j in range(1, k + 2)]
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        series.append(coeffs)
    return series


def assert_stirling_form(problem: BHProblem, order: int) -> None:
    terms = run_hpm(problem, order).terms
    expected = stirling_coefficients(problem, order)
    for k, (term, want) in enumerate(zip(terms, expected)):
        assert list(term.coeffs) == want, f"c_{k} of {problem}"
    assert len(terms) == len(expected) == order + 1


class TestStirlingClosedForm:
    """Every c_k exactly, coefficient by coefficient in Q(sqrt(d))."""

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_presets_through_order_30(self, cid):
        assert_stirling_form(case_preset(cid), 30)

    @settings(max_examples=15, deadline=None)
    @given(
        alpha=st.fractions(-3, 3, max_denominator=4),
        beta=st.fractions(0, 3, max_denominator=4),
        gamma=st.fractions(-2, 3, max_denominator=4).filter(bool),
        branch=st.sampled_from(["upper", "lower"]),
    )
    def test_random_fronts_through_order_8(self, alpha, beta, gamma, branch):
        try:
            problem = BHProblem(alpha=alpha, beta=beta, gamma=gamma, branch=branch)
            run_hpm(problem, 1)
        except (ProblemDomainError, UnsupportedProblemError):
            reject()
        assert_stirling_form(problem, 8)


class TestPartialSums:
    def test_initial_value_preserved(self, expansions):
        # S_m(x, 0) = u(x, 0) for every m
        with working_dps(30):
            for cid in (1, 2, 3):
                expansion = expansions[cid]
                for m in (1, 3, 6):
                    for x in (-1, 0, 2):
                        a = expansion.partial_sum_at(m, x, 0, 30)
                        b = expansion.profiles_at(x, 30)[0]
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


class TestTaylorMatching:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_coefficients_match_wave_taylor(self, cid, expansions):
        # t^k coefficient of v_k against the exact wave's Taylor data
        expansion = expansions[cid]
        wave = deng_wave(case_preset(cid))
        with working_dps(30):
            for x in (-1, Fraction(1, 2), 2):
                oracle = wave.time_taylor_coefficients(x, 4, 30)
                profiles = expansion.profiles_at(x, 30)
                for k in range(1, 5):
                    sym = profiles[k]
                    if oracle[k] == 0:
                        assert sym == 0
                    else:
                        assert abs(sym - oracle[k]) / abs(oracle[k]) < mpf("1e-25")

    def test_slow_front_keeps_its_digits(self):
        # kappa = (sqrt(999950891) - 31622)/8: every sigma-coefficient is
        # a + b*sqrt(d) with a, b up to 1e32 times the coefficient's value
        p = BHProblem(alpha=31622, beta=Fraction(7, 8), gamma=1)
        worst = max_taylor_deviation(run_hpm(p, 5), deng_wave(p), (-3, -1, 0, 2, 3), digits=30)
        assert worst < mpf("1e-30")

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
