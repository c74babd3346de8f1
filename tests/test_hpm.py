import hashlib
import io
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from mpmath import mpf

from bhhpm import BHProblem, case_preset, deng_wave, max_taylor_deviation, run_hpm, working_dps
from bhhpm.errors import (
    ContractViolation, EvaluationError, ProblemDomainError, UnsupportedProblemError,
)
from bhhpm.hpm import (
    MAX_SHIFT, HPMExpansion, _closed_form, _coeffs, _delta, _lattice, _operator_factors,
    _sum_products,
)
from bhhpm.scalars import QuadraticNumber
from bhhpm.tables import build_error_table, emit_table, golden_compare
from bhhpm.waves import TravelingWave

from conftest import (
    FRONTS, NEGATIVE_FRONT, STEEP_FRONTS, matches_reference, pde_residual, plain_profiles_at,
    quad, reference_terms, t_power, two_half_value_at,
)


class TestInitialGuess:
    def test_case1_front(self):
        p = case_preset(1)
        u0 = HPMExpansion.start(p)
        assert u0.series == (_lattice([0, 1], 2),) and (p.radicand, p.sign) == (2, 1)
        assert u0.terms == ("(E^2)/(E^2 + 1)",)
        assert p.kappa == quad(0, Fraction(1, 4), 2)

    def test_case2_front(self):
        p = case_preset(2)
        u0 = HPMExpansion.start(p)
        assert u0.series == (_lattice([0, 1], 1),) and (p.radicand, p.sign) == (1, -1)
        assert u0.terms == ("(1)/(E^2 + 1)",)
        assert p.kappa == Fraction(1, 4)

    def test_case3_front(self):
        p = case_preset(3)
        u0 = HPMExpansion.start(p)
        assert u0.series == (_lattice([0, 3], 3),) and (p.radicand, p.sign) == (3, -1)
        assert u0.terms == ("(3)/(E^2 + 1)",)
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

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    @pytest.mark.parametrize("alpha,beta,gamma", [
        (0, 1, Fraction(1, 2)), (0, Fraction(3, 4), 1), (0, 3, 2), (1, Fraction(5, 3), 1),
        (Fraction(1, 2), Fraction(1, 3), 1),
    ], ids=["d3", "d1", "d1-gamma2", "d21", "d17"])  # by the radicand at n = 2
    def test_n_above_one_does_not_step(self, alpha, beta, gamma, branch):
        # an expansion built by hand from gamma*sigma: N's constants are those of n = 1
        p = BHProblem(alpha=alpha, beta=beta, gamma=gamma, n=2, branch=branch)
        expansion = HPMExpansion(p, (_lattice([0, p.gamma], p.radicand),))
        with pytest.raises(UnsupportedProblemError, match="^symbolic series requires n = 1 "):
            expansion.advanced()

    def test_nonzero_shift_matches_oracle(self):
        # x0 only moves sigma's argument to x + x0
        for cid in (1, 2, 3):
            p = case_preset(cid)
            shifts = [quad(Fraction(1, 2)), quad(Fraction(-3, 2)), quad(Fraction(5, 4))]
            if p.radicand > 1:
                shifts.append(quad(1, 1, p.radicand))
            for x0 in shifts:
                shifted = BHProblem(p.alpha, p.beta, p.gamma, p.n, p.branch, x0)
                worst = max_taylor_deviation(run_hpm(shifted, 10), (-2, -1, 0, 1, 3), digits=30)
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


class TestIntegerLift:
    """A series step runs on integers: N's constants are formed once per problem."""

    @pytest.mark.parametrize("front", FRONTS)
    def test_operator_factors_match_field_arithmetic(self, front):
        # the reference forms each constant in the kernel, as degree-0 products of the
        # lifted rate, alpha, beta and gamma; a minus sign negates a content
        p = FRONTS[front]
        d, one = p.radicand, _lattice([1], p.radicand)
        rate, alpha, beta, gamma = (_lattice([c], d) for c in (
            p.kappa * (2 * p.sign), p.alpha, p.beta, p.gamma))
        minus = lambda f: (-f[0], -f[1], *f[2:])
        expected = (_sum_products(d, [(rate, rate)]),
                    _sum_products(d, [(minus(alpha), rate)], p.n + 1),
                    _sum_products(d, [(beta, one), (beta, gamma)]),
                    _sum_products(d, [(minus(beta), gamma)]),
                    _sum_products(d, [(minus(beta), one)]))
        assert _operator_factors(p) == expected

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
        for p in problems:  # N's constants are field products, formed once per problem
            _operator_factors(p)
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


class TestLazyPowers:
    """An expansion holds the series of u through t^K, and a step keeps
    -beta*(u^2)_i for i < K only: a series forms no power coefficient that only
    the next order reads, and the u^3 series is never formed."""

    @pytest.mark.parametrize("front", FRONTS)
    def test_powers_stop_one_order_below_u(self, front):
        p = FRONTS[front]
        d, one, minus_beta = p.radicand, _lattice([1], p.radicand), _operator_factors(p)[-1]
        for order in (1, 5):
            expansion = run_hpm(p, order)
            u = expansion.series
            assert [len(u), len(expansion._scaled)] == [order + 1, order]
            for m, kept in enumerate(expansion._scaled):  # the kept terms are those of u^2
                head = u[:m + 1]
                square = _sum_products(d, zip(head, reversed(head)))
                assert _sum_products(d, [(one, kept)]) == _sum_products(d, [(minus_beta, square)])

    @pytest.mark.parametrize("front", FRONTS)
    def test_fold_keeps_the_cube_route(self, front):
        # c_(K+1) with (u^3)_K formed and reduced on its own, then scaled by -beta
        # in N's sum of five products: the route that kept a u^3 series
        p = FRONTS[front]
        d = p.radicand
        u = run_hpm(p, 11).series
        square = [_sum_products(d, zip(u[:m + 1], reversed(u[:m + 1]))) for m in range(11)]
        for k in range(11):
            cube = _sum_products(d, zip(square[:k + 1], reversed(u[:k + 1])))
            terms = (_delta(_delta(u[k])), _delta(square[k]), square[k], u[k], cube)
            assert u[k + 1] == _sum_products(d, zip(_operator_factors(p), terms), k + 1), k

    @pytest.mark.parametrize("front", FRONTS)
    def test_step_continues_the_series(self, front):
        p = FRONTS[front]
        for order in (1, 5):
            assert run_hpm(p, order).advanced().series == run_hpm(p, order + 1).series

    @pytest.mark.parametrize("front", {**FRONTS, **STEEP_FRONTS})
    def test_an_expansion_built_from_its_series_steps(self, front):
        # one built by hand forms every -beta*(u^2)_i at its first step
        p = {**FRONTS, **STEEP_FRONTS}[front]
        for order in (0, 1, 5):
            series = run_hpm(p, order).series if order else HPMExpansion.start(p).series
            assert HPMExpansion(p, series).advanced().series == run_hpm(p, order + 1).series

    @pytest.mark.parametrize("front", FRONTS)
    def test_start_forms_no_product(self, front, monkeypatch):
        p, calls = FRONTS[front], []
        counted = lambda *args, **kwargs: calls.append(args) or _sum_products(*args, **kwargs)
        monkeypatch.setattr("bhhpm.hpm._sum_products", counted)
        expansion = HPMExpansion.start(p)
        assert not calls
        assert expansion.series == (_lattice([0, p.gamma], p.radicand),)


class TestGoldenTerms:
    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_first_three_terms_match_closed_forms(self, cid, expansions):
        expansion = expansions[cid]
        expected = reference_terms(cid)
        for k in (1, 2, 3):
            assert expansion.terms[k].endswith(t_power(k))
            assert expansion.problem.sign == case_preset(cid).sign
            assert matches_reference(expansion, k, expected[k - 1]), f"case {cid}, term {k}"

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_terms_are_t_monomials(self, cid, expansions):
        expansion = expansions[cid]
        for k, (term, c) in enumerate(zip(expansion.terms, expansion.series)):
            assert term.endswith(t_power(k)) and c[0]  # c_k is not the zero polynomial

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
            p = case_preset(cid)
            expansion = run_hpm(p, 10)
            for k, (term, poly) in enumerate(zip(expansion.terms, expansion.series)):
                lines.append(f"case {cid} v_{k} = {term}")
                num, _ = _closed_form(poly, p.radicand, p.sign)
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
    series = run_hpm(problem, order).series
    expected = stirling_coefficients(problem, order)
    for k, (c, want) in enumerate(zip(series, expected)):
        assert list(_coeffs(c, problem.radicand)) == want, f"c_{k} of {problem}"
    assert len(series) == len(expected) == order + 1


class TestStirlingClosedForm:
    """Every c_k exactly, coefficient by coefficient in Q(sqrt(d))."""

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_presets_through_order_30(self, cid):
        assert_stirling_form(case_preset(cid), 30)

    @pytest.mark.parametrize("name", [name for name in FRONTS if not name.startswith("case")])
    def test_other_fronts_through_order_30(self, name):
        # the slow, shifted lower-branch and surd-beta fronts: their last sums
        # mix pairs on different lines of Q(sqrt(d))
        assert_stirling_form(FRONTS[name], 30)

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


#: sha256 of repr(run_hpm(p, 30).series), tuple for tuple, so a kernel change
#: that moves one integer of one coefficient fails here.
SERIES_SHA256 = {
    "case1": "bedd2f73ee353200f53aaf5847da7f891af5b7d054a7a9552615023f28fd829c",
    "case2": "455c28a7a2be3f6507d1bc5ba084b6921bbc23dfc13f22b7b5d374122161e302",
    "case3": "890faaa6ee02a74ec452818fed6d1bfe798ec9273f61245acf4fd5ad88c50666",
    "slow": "0420ccc1cba5ce45bc6765119601cc184c3b39c4d13ff19ea0176da4b13d40d7",
    "lower-x0": "394a4c7c2e37dafeef47e60325663bf212f1d07f1d2281dbbb35e6032971b020",
    "surd-beta": "b3d082df04bf6ebdc31f352669bea2d5487c0aa34d80b110279aca160ec00a6b",
    "steep-lower": "58166028627c81ea4d92dd5e0b1a93320cb5aaaf9ab6e557c5221f2f78579086",
    "steep-upper": "03338fd2bdce88f6b31ff7e3c4af98e6502f44a3805d7eecdc2fb8b6fbb9a47c",
}


@pytest.mark.parametrize("front", SERIES_SHA256)
def test_series_keep_every_integer(front):
    series = run_hpm({**FRONTS, **STEEP_FRONTS}[front], 30).series
    assert hashlib.sha256(repr(series).encode()).hexdigest() == SERIES_SHA256[front]


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

    def test_tail_bound(self, expansions):
        # case 1 evaluates out to x = -10^6 (sigma -> 0) and x = +10^6 (sigma -> 1);
        # a little farther out sigma needs more than MAX_SHIFT bits
        for x in (-10**6, 10**6):
            assert len(expansions[1].profiles_at(x, 30)) == expansions[1].order + 1
        message = f"x \\+ x0 = -1030000.0 .* 2\\^-{MAX_SHIFT}$"
        with pytest.raises(UnsupportedProblemError, match=message):
            expansions[1].profiles_at(-1030000, 30)

    @pytest.mark.parametrize("front", ["case3", "case1", "steep-upper", "negative"])
    def test_partial_sums_keep_the_bits_of_table_cells(self, front):
        # |S_m - u|/|u| from partial_sum_at and eval_at is build_error_table's cell
        p = {**FRONTS, **STEEP_FRONTS, "negative": NEGATIVE_FRONT}[front]
        expansion, wave = run_hpm(p, 8), TravelingWave(p)
        xs = (-24, Fraction(-7, 3), 0, Fraction(7, 4), 24)
        ts, orders = (Fraction(3, 10), Fraction(-1, 7), Fraction(1, 2)), range(1, 10)
        for digits in (30, 45):
            table = build_error_table(expansion, wave, orders, ts, xs, digits)
            with working_dps(digits):
                for t, block in zip(ts, table.cells):
                    for m, row in zip(orders, block):
                        for x, cell in zip(xs, row):
                            exact = wave.eval_at(x, t, digits)
                            error = abs(expansion.partial_sum_at(m, x, t, digits) - exact)
                            assert error / abs(exact) == cell

    def test_out_of_range_m(self, expansions):
        with pytest.raises(ContractViolation):
            expansions[1].partial_sum_at(8, 0, 0, 30)
        with pytest.raises(ContractViolation):
            expansions[1].partial_sum_at(0, 0, 0, 30)


NAN, INF = mpf("nan"), mpf("inf")


class TestPublicInputs:
    """A NaN or +-inf x or t, or digits below 1, raises instead of giving a finite
    wrong value: the raw helpers read libmp's NaN and +-inf, mantissa 0, as zero.
    A non-integer order, an unknown case, format or cell and a grid point that is
    no exact rational raise ContractViolation, naming the value."""

    @pytest.mark.parametrize("call", [
        lambda e, w: e.profiles_at(NAN),
        lambda e, w: e.profiles_at(INF),
        lambda e, w: e.profiles_at(-INF),
        lambda e, w: w.eval_at(1, NAN),
        lambda e, w: w.eval_at(INF, 0),
        lambda e, w: e.partial_sum_at(2, 1, NAN),
        lambda e, w: w.t_radius(NAN),
        lambda e, w: build_error_table(e, w, (1,), [INF], [0]),
        lambda e, w: build_error_table(e, w, (1,), [0], [float("nan")]),
        lambda e, w: build_error_table(e, w, (1,), [0], [-INF]),
    ], ids=["profiles-nan", "profiles-inf", "profiles-minus-inf", "eval-t-nan", "eval-x-inf",
            "partial-sum-t-nan", "t-radius-nan", "table-t-inf", "table-x-float-nan",
            "table-x-minus-inf"])
    def test_non_finite_point_raises(self, expansions, call):
        with pytest.raises(EvaluationError):
            call(expansions[1], TravelingWave(case_preset(1)))

    @pytest.mark.parametrize("digits", [-5, 0])
    def test_digits_below_one_raise(self, expansions, digits):
        # profiles_at(1, -5) ran at 5 working digits; every entry that takes digits refuses
        e, w = expansions[1], TravelingWave(case_preset(1))
        for call in (lambda: e.profiles_at(1, digits), lambda: e.partial_sum_at(2, 1, 0, digits),
                     lambda: max_taylor_deviation(e, (0,), digits),
                     lambda: build_error_table(e, w, (1,), (0,), (0,), digits),
                     lambda: w.eval_at(1, 0, digits), lambda: w.t_radius(1, digits),
                     lambda: w.time_taylor_coefficients(1, 2, digits)):
            with pytest.raises(ContractViolation):
                call()

    @pytest.mark.parametrize("call,named", [
        (lambda e, w, table: run_hpm(case_preset(1), 2.5), "2.5"),
        (lambda e, w, table: run_hpm(case_preset(1), "3"), "'3'"),
        (lambda e, w, table: e.partial_sum_at(1.5, 1, Fraction(1, 10)), "1.5"),
        (lambda e, w, table: build_error_table(e, w, (1.5,), (0,), (0,)), "1.5"),
        (lambda e, w, table: w.time_taylor_coefficients(0, 2.5), "2.5"),
        (lambda e, w, table: w.time_taylor_coefficients(0, -1), "-1"),
        (lambda e, w, table: build_error_table(e, w, (1,), [mpf("0.1")], [0]), "t = mpf('0.1"),
        (lambda e, w, table: golden_compare(table, 4), "4"),
        (lambda e, w, table: emit_table(table, "xml", io.StringIO()), "'xml'"),
        (lambda e, w, table: table.cell(Fraction(7, 10), 1, 1), "0.7"),
    ], ids=["run-float-order", "run-str-order", "partial-sum-float-m", "table-float-order",
            "taylor-float-order", "taylor-negative-order", "table-mpf-t", "golden-case-4",
            "emit-xml", "cell-off-grid"])
    def test_out_of_contract_argument_is_a_contract_violation(self, expansions, call, named):
        e, w = expansions[1], TravelingWave(case_preset(1))
        table = build_error_table(e, w, (1,), (Fraction(1, 10),), (1,))
        with pytest.raises(ContractViolation, match=re.escape(named)):
            call(e, w, table)


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

    @pytest.mark.parametrize("front", [*FRONTS, *STEEP_FRONTS])
    def test_fronts_match_oracle_through_order_10(self, front):
        p = FRONTS.get(front) or STEEP_FRONTS[front]
        worst = max_taylor_deviation(run_hpm(p, 10), (-2, -1, 0, 1, 3), digits=30)
        assert worst < mpf("1e-30")

    @pytest.mark.parametrize("front", FRONTS)
    def test_profiles_keep_the_bits_of_two_half_horner(self, front):
        # a content times one integer list evaluates, on raw libmp values, to the
        # very bits of mpf-operator Horner's rule on the rational and sqrt(d)
        # halves, on both tails and far out; the far points take K = 6, where
        # Horner's integers still reach about 10^6 bits (case 3) at a fraction of K = 12's cost
        near, far = run_hpm(FRONTS[front], 12), run_hpm(FRONTS[front], 6)
        points = [(near, Fraction(k, 7)) for k in range(-200, 201, 3)]
        points += [(far, x) for x in (5000, -5000, 90000, -90000)]
        for digits in (30, 45):
            for expansion, x in points:
                got = expansion.profiles_at(x, digits)
                want = plain_profiles_at(expansion, x, digits, two_half_value_at)
                assert [v._mpf_ for v in got] == [v._mpf_ for v in want], (x, digits)

    def test_slow_front_keeps_its_digits(self):
        # kappa = (sqrt(999950891) - 31622)/8: every sigma-coefficient is
        # a + b*sqrt(d) with a, b up to 1e32 times the coefficient's value
        p = BHProblem(alpha=31622, beta=Fraction(7, 8), gamma=1)
        worst = max_taylor_deviation(run_hpm(p, 5), (-3, -1, 0, 2, 3), digits=30)
        assert worst < mpf("1e-30")

    def test_residual_decreases_with_order(self, expansions):
        # numeric PDE residual of S_m at (1, 1/10) drops monotonically
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
