import random
from fractions import Fraction

import mpmath
import pytest
from mpmath import mpf

from bhhpm import BHProblem, HPMExpansion, case_preset, deng_wave, working_dps
from bhhpm.errors import ContractViolation, EvaluationError, UnsupportedProblemError
from bhhpm.hpm import MAX_SHIFT
from bhhpm.scalars import to_mpf
from conftest import FRONTS, pde_residual, plain_wave_base, quad

GRID = [(Fraction(x), Fraction(t, 10)) for x in (1, 2, 3) for t in (1, 3, 4)]

#: Fronts the series accepts: ``FRONTS``, a steep one and gamma < 0.
ACCEPTED_FRONTS = {
    **FRONTS,
    "steep": BHProblem(0, Fraction(1000000007, 8), 1),
    "negative-gamma": BHProblem(0, 1, Fraction(-1, 2)),
}


class TestWaveParameters:
    # the wave reads its constants from its problem: wavenumber is kappa,
    # shift is x0, root index is n
    def test_case1_closed_form(self):
        p = deng_wave(case_preset(1)).problem
        assert p.sign == 1
        assert p.gamma * Fraction(1, 2) == Fraction(1, 2)  # the amplitude
        assert p.kappa == quad(0, Fraction(1, 4), 2)   # 1/(2*sqrt(2))
        assert p.speed == quad(0, Fraction(1, 2), 2)   # 1/sqrt(2)
        assert p.x0 == 0 and p.n == 1

    def test_case2_closed_form(self):
        p = deng_wave(case_preset(2)).problem
        assert p.sign == -1
        assert p.gamma * Fraction(1, 2) == Fraction(1, 2)  # the amplitude
        assert p.kappa == Fraction(1, 4)
        assert p.speed == Fraction(-3, 2)

    def test_case3_closed_form(self):
        p = deng_wave(case_preset(3)).problem
        assert p.sign == -1
        assert p.gamma * Fraction(1, 2) == Fraction(3, 2)  # the amplitude
        assert p.kappa == quad(Fraction(-3, 4), Fraction(3, 4), 3)
        assert p.speed == quad(Fraction(-5, 2), Fraction(1, 2), 3)

    def test_wave_holds_its_problem(self):
        # the wave's constants are the problem's (pinned in test_problem.py)
        problems = [case_preset(cid) for cid in (1, 2, 3)]
        problems.append(BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2, x0=quad(2)))
        for p in problems:
            assert deng_wave(p).problem == p


class TestEvaluation:
    def test_center_value(self):
        for cid in (1, 2):
            w = deng_wave(case_preset(cid))
            assert w.eval_at(0, 0, 30) == mpf("0.5")

    def test_case2_long_time_limit(self):
        w = deng_wave(case_preset(2))
        assert w.eval_at(0, 200, 30) < mpf("1e-20")

    def test_case1_reference_point(self):
        # independent tanh-form computation at (1, 1/10)
        with working_dps(30):
            value = deng_wave(case_preset(1)).eval_at(1, Fraction(1, 10), 30)
            a = mpmath.sqrt(2) / 4
            oracle = mpf(1) / 2 + mpmath.tanh(a * (1 - mpmath.sqrt(2) / 2 * mpf("0.1"))) / 2
            assert mpmath.almosteq(value, oracle, rel_eps=mpf("1e-26"))

    def test_tanh_exponential_identity(self):
        # A +/- A*tanh(theta) equals 2A*e^(+/-theta)/(e^theta + e^-theta)
        rng = random.Random(13)
        with working_dps(30):
            for _ in range(25):
                theta = mpf(rng.randint(-300, 300)) / 100
                A = mpf(rng.randint(1, 12)) / 4
                for s in (1, -1):
                    lhs = A + s * A * mpmath.tanh(theta)
                    rhs = 2 * A * mpmath.exp(s * theta) / (mpmath.exp(theta) + mpmath.exp(-theta))
                    assert mpmath.almosteq(lhs, rhs, rel_eps=mpf("1e-25"))

    def test_matches_initial_guess_at_t0(self):
        with working_dps(30):
            for cid in (1, 2, 3):
                p = case_preset(cid)
                w = deng_wave(p)
                expansion = HPMExpansion.start(p)
                for i in range(10):
                    x = Fraction(i * 3 - 14, 5)
                    assert mpmath.almosteq(
                        w.eval_at(x, 0, 30), expansion.profiles_at(x, 30)[0], rel_eps=mpf("1e-25")
                    )

    def test_shift_moves_the_front(self):
        p = BHProblem(alpha=0, beta=1, gamma=1, x0=quad(2))
        w = deng_wave(p)
        w0 = deng_wave(case_preset(1))
        with working_dps(30):
            a = w.eval_at(1, Fraction(1, 10), 30)
            b = w0.eval_at(3, Fraction(1, 10), 30)
            assert mpmath.almosteq(a, b, rel_eps=mpf("1e-26"))

    @pytest.mark.parametrize("front", ACCEPTED_FRONTS)
    def test_nonzero_out_to_the_tail_bound(self, front):
        # a table divides each cell by the wave; |u| is monotone in the
        # phase, and at each t the phase is farthest out at the edge where
        # profiles_at's bound on sigma = m/2^s begins rejecting points
        p = ACCEPTED_FRONTS[front]
        expansion = HPMExpansion.start(p)
        wave = deng_wave(p)
        with working_dps(30):
            edge = MAX_SHIFT * mpmath.ln2 / (2 * abs(to_mpf(p.kappa)))
            for side in (-1, 1):
                with pytest.raises(UnsupportedProblemError, match="x \\+ x0 = "):
                    expansion.profiles_at(side * edge - to_mpf(p.x0))
                for t in (0, Fraction(1, 10), Fraction(3, 10), Fraction(2, 5)):
                    x = side * (edge + abs(to_mpf(p.speed)) * to_mpf(t)) - to_mpf(p.x0)
                    assert wave.eval_at(x, t, 30) != 0

    def test_fractional_root_wave(self):
        p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2)
        w = deng_wave(p)
        with working_dps(30):
            value = w.eval_at(0, 0, 30)
            assert mpmath.almosteq(value, mpmath.sqrt(mpf("0.25")), rel_eps=mpf("1e-26"))

    def test_negative_base_rejected(self):
        p = BHProblem(alpha=1, beta=1, gamma=-Fraction(1, 2), n=2)
        w = deng_wave(p)
        with pytest.raises(EvaluationError):
            w.eval_at(0, 0, 30)


    @pytest.mark.parametrize("cid,x", [(1, -100), (1, -200), (1, -400), (2, 100), (2, 300),
                                       (3, 30), (3, 100)])
    def test_far_tail_keeps_its_digits(self, cid, x):
        # 1 + s*tanh cancels here (to 0 at case 1, x = -200, at 30 digits);
        # the reference takes the tanh form at 1200 digits
        p = case_preset(cid)
        for t in (0, Fraction(1, 10)):
            value = deng_wave(p).eval_at(x, t, 30)
            with working_dps(1200):
                phase = to_mpf(p.kappa) * (x - to_mpf(p.speed) * to_mpf(t))
                exact = to_mpf(p.gamma * Fraction(1, 2)) * (1 + p.sign * mpmath.tanh(phase))
                assert abs(value - exact) <= mpf("1e-35") * exact


class TestEvalBits:
    """``eval_at`` runs on raw libmp values; every value keeps the bits of
    the plain mpf-operator route."""

    @staticmethod
    def points(seed: int) -> list[tuple[Fraction, Fraction]]:
        rng = random.Random(seed)
        return [(Fraction(rng.randint(-2400, 2400), 100), Fraction(rng.randint(0, 400), 1000))
                for _ in range(20)] + [(Fraction(5000), Fraction(1, 10)), (Fraction(-5000), Fraction(2, 5))]

    @pytest.mark.parametrize("front", FRONTS)
    def test_equals_plain_route(self, front):
        p = FRONTS[front]
        wave = deng_wave(p)
        for digits in (30, 45):
            for x, t in self.points(17):
                want = plain_wave_base(p, x, t, digits)
                assert wave.eval_at(x, t, digits)._mpf_ == want._mpf_, (x, t, digits)

    @pytest.mark.parametrize("branch", ["upper", "lower"])
    def test_root_of_plain_base(self, branch):
        # n >= 2 takes mpmath.root of the same base
        p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2, branch=branch, x0=quad(2))
        wave = deng_wave(p)
        for digits in (30, 45):
            for x, t in self.points(19):
                with working_dps(digits):
                    want = mpmath.root(plain_wave_base(p, x, t, digits), 2)
                assert wave.eval_at(x, t, digits)._mpf_ == want._mpf_, (x, t, digits)


class TestTaylorOracle:
    def test_order_zero_is_initial_value(self):
        for cid in (1, 2, 3):
            w = deng_wave(case_preset(cid))
            with working_dps(30):
                for x in (-1, 0, 2):
                    coeffs = w.time_taylor_coefficients(x, 0, 30)
                    assert mpmath.almosteq(coeffs[0], w.eval_at(x, 0, 30), rel_eps=mpf("1e-26"))

    def test_case1_linear_coefficient_at_origin(self):
        w = deng_wave(case_preset(1))
        coeffs = w.time_taylor_coefficients(0, 2, 30)
        with working_dps(30):
            assert mpmath.almosteq(coeffs[1], mpf("-0.125"), rel_eps=mpf("1e-26"))
        assert coeffs[2] == 0  # odd front profile kills even orders at x = 0

    def test_series_sums_to_wave_value(self):
        # partial Taylor sums converge to the pointwise value for small t
        with working_dps(40):
            for cid in (1, 2, 3):
                w = deng_wave(case_preset(cid))
                x, t = mpf(1), mpf("0.01")
                coeffs = w.time_taylor_coefficients(x, 12, 40)
                total = sum(c * t**k for k, c in enumerate(coeffs))
                assert mpmath.almosteq(total, w.eval_at(x, t, 40), rel_eps=mpf("1e-22"))

    def test_negative_order_rejected(self):
        with pytest.raises(ContractViolation, match="order must be nonnegative"):
            deng_wave(case_preset(1)).time_taylor_coefficients(0, -1, 30)

    def test_root_index_above_one_rejected(self):
        p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2)
        with pytest.raises(UnsupportedProblemError):
            deng_wave(p).time_taylor_coefficients(0, 3, 30)


class TestRadiusOfConvergence:
    def test_case3_radius_at_three(self):
        # |3 - i*pi/(2*kappa)|/|c| with kappa = 3(sqrt(3) - 1)/4, c = (sqrt(3) - 5)/2
        with working_dps(30):
            assert mpmath.almosteq(deng_wave(case_preset(3)).t_radius(3),
                                   mpf("2.537074972361863"), rel_eps=mpf("1e-15"))

    def test_root_test_of_oracle_coefficients(self):
        # Cauchy-Hadamard: max_k |a_k|^(1/k) over k = 20..30 is 1/R to within 5%
        for cid in (1, 2, 3):
            w = deng_wave(case_preset(cid))
            for x in (0, 1, 3):
                with working_dps(40):
                    coeffs = w.time_taylor_coefficients(x, 30, 40)
                    root = max(abs(c) ** (mpf(1) / k) for k, c in enumerate(coeffs) if k >= 20)
                    assert 0.95 < root * w.t_radius(x, 40) < 1.05, (cid, x)

    def test_standing_front_has_infinite_radius(self):
        p = BHProblem(alpha=0, beta=1, gamma=2)  # c = 0: u does not move
        assert p.speed.is_zero() and deng_wave(p).t_radius(1) == mpmath.inf


class TestResidual:
    def test_zero_function_is_steady(self):
        zero = lambda x, t, digits: mpf(0)
        r = pde_residual(zero, case_preset(1), 1, Fraction(1, 10))
        assert r == 0

    def test_exact_wave_case1(self):
        w = deng_wave(case_preset(1))
        r = pde_residual(w.eval_at, case_preset(1), 1, Fraction(3, 10))
        assert r < mpf("1e-15")

    def test_exact_wave_case3(self):
        w = deng_wave(case_preset(3))
        r = pde_residual(w.eval_at, case_preset(3), 2, Fraction(2, 5))
        assert r < mpf("1e-15")

    @pytest.mark.parametrize("cid", [1, 2, 3])
    def test_exact_wave_full_grid(self, cid):
        p = case_preset(cid)
        w = deng_wave(p)
        func = w.eval_at
        for x, t in GRID:
            assert pde_residual(func, p, x, t) < mpf("1e-15")

    def test_higher_root_wave_solves_pde(self):
        # both branches for n = 2 satisfy the equation
        for branch in ("upper", "lower"):
            p = BHProblem(alpha=1, beta=1, gamma=Fraction(1, 2), n=2, branch=branch)
            w = deng_wave(p)
            r = pde_residual(w.eval_at, p, Fraction(1, 2), Fraction(1, 10))
            assert r < mpf("1e-15")

    def test_bad_step_rejected(self):
        w = deng_wave(case_preset(1))
        with pytest.raises(ValueError):
            pde_residual(w.eval_at, case_preset(1), 1, 0, step=Fraction(0))
