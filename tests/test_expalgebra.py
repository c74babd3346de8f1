"""The profile algebra of the series engine: polynomials over Q(sqrt(d)) in
the logistic variable sigma of E = exp(kappa*x), as ``bhhpm.hpm`` adds,
scales, multiplies, differentiates, evaluates and prints them.  The engine
holds each one as a content in Q(sqrt(d)) times an integer list, (a, b, den, q),
so every coefficient lies on one line of Q(sqrt(d)), and a sum that leaves it
is a contract violation; ``_lattice`` and ``_coeffs`` convert from and to
exact coefficients."""

import itertools
import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from bhhpm import BHProblem, case_preset, run_hpm, working_dps
from bhhpm.errors import ContractViolation
from bhhpm.hpm import (
    ZERO_POLY, _closed_form, _coeffs, _delta, _delta2, _lattice, _reduced, _square,
    _sum_products, _term_text, _value_at,
)

from conftest import add, mul, quad, random_coeffs, random_poly, random_quad, sigma_value

D = 2                               # the radicand of both fronts below
KAPPA = quad(0, Fraction(1, 4), D)  # sqrt(2)/4, the steepest benchmark rate
#: Both branches of the alpha = 0, beta = gamma = 1 front, each with kappa = KAPPA.
FRONTS = {1: case_preset(1), -1: BHProblem(alpha=0, beta=1, gamma=1, branch="lower")}
FRONT = _lattice([0, 1], D)         # sigma: E^2/(E^2 + 1), or 1/(E^2 + 1)
ONE_MINUS = _lattice([1, -1], D)    # 1 - sigma


def rate(sign: int):
    return _lattice([KAPPA * (2 * sign)], D)


def const(value):
    return _lattice([value], D)


def dx(p, sign: int = 1):
    """d/dx of P(sigma) on branch ``sign``: rate*delta(P)."""
    return mul(rate(sign), _delta(p), D)


def value(p, x, sign: int = 1, digits: int = 30):
    return sigma_value(p, FRONTS[sign], x, digits)


class TestSigmaPoly:
    def test_zero_coefficients_dropped(self):
        assert _reduced([3, 0, 0], [0, 0, 0], 1) == (3, 0, 1, (1,))
        assert _lattice([quad(3), quad(0), quad(0)], D) == _lattice([quad(3)], D)
        assert _sum_products(D, [(const(1), FRONT), (const(-1), FRONT)]) == ZERO_POLY

    def test_sum_off_one_line_is_a_contract_violation(self):
        # 1 + sqrt(2)*sigma: no one content carries both coefficients
        with pytest.raises(ContractViolation):
            add(const(1), mul(const(quad(0, 1, D)), FRONT, D), D)
        with pytest.raises(ContractViolation):
            _lattice([1, quad(0, 1, D)], D)
        # only the half that does not define q is checked; each of these leaves the line
        off_line = [
            ([1, 2], [0, 3]),   # the other top, 3, is not a multiple of q's, 2
            ([1, 2], [5, 0]),   # the other top is 0, a lower entry is not
            ([1, 0], [2, 3]),   # b defines q, a's top is 0, a lower entry is not
        ]
        for a, b in off_line:
            with pytest.raises(ContractViolation):
                _reduced(a, b, 1)
        # on the line, with a negative g: from a, and from b where a's top is 0
        assert _reduced([-2, -4], [-6, -12], 4) == (-1, -3, 2, (1, 2))
        assert _reduced([0, 0], [-3, -6], 6) == (0, -1, 2, (1, 2))

    def test_arithmetic(self):
        assert add(FRONT, ONE_MINUS, D) == _lattice([1], D)
        assert mul(FRONT, ONE_MINUS, D) == _lattice([0, 1, -1], D)
        assert mul(FRONT, ZERO_POLY, D) == ZERO_POLY

    def test_diff(self):
        # d/dx sigma^2 = 2*sigma*rate*sigma*(1 - sigma)
        r = KAPPA * 2
        assert dx(mul(FRONT, FRONT, D)) == _lattice([0, 0, r * 2, r * -2], D)

    def test_coefficients_round_trip(self):
        rng = random.Random(11)
        for _ in range(20):
            coeffs = random_coeffs(rng, d=3)
            assert _coeffs(_lattice(coeffs, 3), 3) == coeffs


def canonical(p) -> bool:
    """q a primitive integer tuple with q[-1] > 0, den >= 1 and gcd(a, b, den) = 1
    for a nonzero content a + b*sqrt(d); the zero polynomial is (0, 0, 1, ())."""
    a, b, den, q = p
    if not q:
        return p == ZERO_POLY
    return (isinstance(q, tuple) and math.gcd(*q) == 1 and q[-1] > 0 and den >= 1
            and math.gcd(a, b, den) == 1 and (a != 0 or b != 0))


def lines(d: int):
    """Nonzero values of Q(sqrt(d)): rational, a rational multiple of sqrt(d) or
    both at once, so the product of two has a zero rational or sqrt(d) part at
    times; d = 0 gives rationals only."""
    part = st.fractions(-9, 9, max_denominator=12).filter(bool)
    if not d:
        return part.map(quad)
    return st.one_of(part.map(quad), part.map(lambda b: quad(0, b, d)),
                     st.tuples(part, part).map(lambda ab: quad(*ab, d)))


def on_line(line, d: int, max_size: int = 5):
    """Polynomials over radicand d as a content on the line of ``line`` (a
    rational multiple of it) times a random integer list of at most
    ``max_size`` entries."""
    return st.tuples(st.fractions(-9, 9, max_denominator=12),
                     st.lists(st.integers(-20, 20), max_size=max_size)).map(
        lambda content: _lattice([line * content[0] * k for k in content[1]], d))


def schoolbook(pairs, d: int, weights=None) -> tuple:
    """sum(w * P * Q) over the pairs, coefficient by coefficient in Q(sqrt(d)),
    trailing zeros trimmed; w is 1 for every pair without ``weights``."""
    total = []
    for (p, q), w in zip(pairs, weights or [1] * len(pairs)):
        for i, x in enumerate(_coeffs(p, d)):
            for j, y in enumerate(_coeffs(q, d)):
                total += [quad(0)] * (i + j + 1 - len(total))
                total[i + j] += x * y * w
    while total and total[-1].is_zero():
        total.pop()
    return tuple(total)


class TestLatticeInvariant:
    """Every result of the sum of products (linear combinations included) and
    of the derivative is canonical, so equal polynomials are equal tuples, and
    has the coefficients of the schoolbook sum of products."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.sampled_from([0, 2, 3]))
    def test_results_are_canonical(self, data, d):
        # p, q, r on one line omega and f, g on one line phi, so every sum stays on one
        omega, phi = (data.draw(lines(d)) for _ in range(2))
        p, q, r = (data.draw(on_line(omega, d)) for _ in range(3))
        f, g = (data.draw(on_line(phi, d, max_size=1)) for _ in range(2))
        assert all(canonical(x) for x in (p, q, r, f, g))
        # linear combinations (degree-0 factors), products, derivatives
        assert canonical(_sum_products(d, [(f, p), (g, q), (f, r)]))
        assert canonical(_sum_products(d, [(_lattice([1], d), p), (_lattice([-1], d), p)]))
        assert canonical(_sum_products(d, [(p, q), (q, r), (r, p)]))
        assert canonical(_sum_products(d, [(f, _delta(p))]))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]))
    def test_values_match_schoolbook(self, data, d):
        # each line is rational, a multiple of sqrt(d) or general, so every skip
        # of a zero scale in the kernel meets every other case
        omega, phi = (data.draw(lines(d)) for _ in range(2))
        polys = on_line(omega, d)
        p, q, r = (data.draw(polys) for _ in range(3))
        u = tuple(data.draw(polys) for _ in range(data.draw(st.integers(1, 5))))
        f, g = (data.draw(on_line(phi, d, max_size=1)) for _ in range(2))
        weights = data.draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        pairs_drawn = [[(p, q)], [(f, p), (g, q), (f, r)], [(p, q), (q, r), (r, p)]]
        # one sum of pairs on different lines: a rational, a sqrt(d) and a general
        # content product, each a multiple of the one rational F*G, and a degree-0
        # factor, so every pair's route through the kernel (a zero weight skips it)
        # meets the others in one call and the sum stays on one line
        big_f, big_g = (data.draw(on_line(quad(1), d)) for _ in range(2))
        a, b, x, y = (data.draw(st.fractions(-9, 9, max_denominator=12).filter(bool))
                      for _ in range(4))
        times = lambda c, h: _lattice([c * k for k in _coeffs(h, d)], d)
        pairs_drawn.append([(times(quad(a), big_f), big_g), (big_f, times(quad(0, b, d), big_g)),
                            (times(quad(x, y, d), big_f), big_g),
                            (_lattice([data.draw(lines(d))], d), mul(big_f, big_g, d))])
        weights.append(data.draw(st.integers(-3, 3)))
        # every drawn denominator has prime factors up to 11, so the second pair's
        # does not divide the running one: the kernel rescales what it has summed
        pairs_drawn.append([(_lattice([Fraction(1, 13)], d), p),
                            (_lattice([Fraction(1, 17)], d), q)])
        # pairs on one general line and degree-0 factors on drawn lines, each with an
        # optional twin that cancels it: every product is a multiple of one integer
        # list F*G*H split four ways, the last a degree-0 factor, so any mix sums on
        # one line, whichever real product sets the kernel's line
        ints = st.lists(st.integers(-9, 9), min_size=1, max_size=3).filter(lambda k: k[-1])
        f1, f2, f3 = (data.draw(ints) for _ in range(3))
        splits = [(f1, convolve(f2, f3)), (convolve(f1, f2), f3), (f2, convolve(f1, f3)),
                  ([1], convolve(convolve(f1, f2), f3))]
        part = st.fractions(-9, 9, max_denominator=12).filter(bool)
        general = quad(data.draw(part), data.draw(part), d)  # scales both halves
        mixed = []
        for kind in data.draw(st.lists(st.sampled_from(["on", "factor"]),
                                       min_size=1, max_size=6)):
            rows, columns = splits[3] if kind == "factor" else data.draw(st.sampled_from(splits))
            content = general * data.draw(part) if kind == "on" else data.draw(lines(d))
            scale = data.draw(part)
            pair = (_lattice([content * k for k in rows], d),
                    _lattice([scale * k for k in columns], d))
            mixed += [pair, (negated(pair[0]), pair[1])] if data.draw(st.booleans()) else [pair]
        pairs_drawn.append(mixed)
        for pairs in pairs_drawn:
            total = _sum_products(d, pairs)
            assert canonical(total)
            assert _coeffs(total, d) == schoolbook(pairs, d)
            # the order of the pairs, so which pair sets the sum's line, does not matter
            assert _sum_products(d, pairs[::-1]) == total
            assert _sum_products(d, data.draw(st.permutations(pairs))) == total
            # each weight scales its pair's first content, which is then unreduced
            weighted = [((w * x, w * y, den, q), h)
                        for ((x, y, den, q), h), w in zip(pairs, weights)]
            assert _coeffs(_sum_products(d, weighted), d) == schoolbook(pairs, d, weights)
        # the square by symmetry against the plain convolution
        assert _square(u, d) == _sum_products(d, zip(u, reversed(u)))


def convolve(p, q) -> list:
    """The integer product of two lists, lowest power first."""
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def negated(p):
    a, b, den, q = p
    return -a, -b, den, q


class TestLineOfASum:
    """A sum of products over Q(sqrt(d)) sums the pairs that scale both halves, each
    an integer multiple of one direction (da, db) set by the first of them that has
    rows to convolve, into one list; the result does not depend on the order of the
    pairs, so on which pair sets the direction.  A pair that scales both halves off
    that line is a contract violation."""

    def test_products_on_one_line_and_a_factor_on_another(self):
        # over Q(sqrt(2)), every product is a multiple of F*G (4 entries), so the sum
        # stays on one line: contents 1 + sqrt(2) and its 3/2, and the degree-0
        # factor 3 - sqrt(2) on a line of its own; the 3/2 rescales what is summed
        f, g = (1, 2), (3, -1, 4)
        fg = tuple(convolve(f, g))
        pairs = [((1, 1, 1, g), (1, 0, 1, f)), ((3, -1, 1, (1,)), (1, 0, 1, fg)),
                 ((3, 3, 2, f), (1, 0, 1, g))]
        want = _lattice([quad(Fraction(11, 2), Fraction(3, 2), D) * k for k in fg], D)
        assert _coeffs(want, D) == schoolbook(pairs, D)
        # each product in turn sets the line (or the degree-0 factor comes first, which
        # never does), and the others are on it or a factor
        for order in itertools.permutations(pairs):
            assert _sum_products(D, order) == want, order
        # pairs that cancel: on the line alone, the result is zero
        on_line = [pairs[0], pairs[2]]
        assert _sum_products(D, on_line + [(negated(p), q) for p, q in on_line]) == ZERO_POLY
        assert _sum_products(D, pairs + [(negated(p), q) for p, q in pairs]) == ZERO_POLY
        # a line alone folds to its canonical form
        assert _sum_products(D, on_line) == _lattice(
            [quad(Fraction(5, 2), Fraction(5, 2), D) * k for k in fg], D)

    def test_products_on_two_lines_are_a_contract_violation(self):
        # 1 + sqrt(2) and 2 + sqrt(2) both scale both halves, on different lines, though
        # their sum (3 + 2*sqrt(2))*F*G lies on one: whichever comes first sets the line
        f, g = (1, 2), (3, -1, 4)
        pairs = [((1, 1, 1, g), (1, 0, 1, f)), ((2, 1, 1, f), (1, 0, 1, g))]
        for order in (pairs, pairs[::-1]):
            with pytest.raises(ContractViolation, match="leaves its sum's line"):
                _sum_products(D, order)


class TestCanonicalForm:
    def test_denominator_starts_at_zero_and_monic(self):
        assert _term_text(FRONT, D, 0, 1) == "(E^2)/(E^2 + 1)"
        assert _term_text(FRONT, D, 0, -1) == "(1)/(E^2 + 1)"
        rng = random.Random(3)
        for _ in range(20):
            p = random_coeffs(rng, nonzero=True)
            _, den = _closed_form(_lattice(p, D), D, rng.choice((1, -1)))
            assert len(den) == len(p) and den[0] == den[-1] == 1

    def test_zero_is_zero_over_one(self):
        assert _term_text(ZERO_POLY, D, 2, 1) == "0"
        assert value(ZERO_POLY, 1) == 0

    def test_monic_normalization(self):
        assert _term_text(_lattice([0, Fraction(3, 2)], D), D, 0, 1) == "(3/2*E^2)/(E^2 + 1)"

    def test_lowest_terms(self):
        # N(E^2)/(E^2 + 1)^m has no common factor: N(-1) = +/-p_m != 0
        rng = random.Random(7)
        for _ in range(40):
            p = random_coeffs(rng, nonzero=True)
            sign = rng.choice((1, -1))
            num, _ = _closed_form(_lattice(p, D), D, sign)
            at_minus_one = sum((c * (-1) ** i for i, c in enumerate(num)), quad(0))
            top = len(p) - 1
            assert at_minus_one == (p[-1] * (-1) ** top if sign > 0 else p[-1])
            assert at_minus_one != 0


class TestArithmetic:
    def test_additive_identity(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_poly(rng)
            assert add(a, ZERO_POLY, D) == a

    def test_square_of_front(self):
        square = mul(FRONT, FRONT, D)
        assert square == _lattice([0, 0, 1], D)
        assert _term_text(square, D, 0, 1) == "(E^4)/(E^4 + 2*E^2 + 1)"

    def test_triple_product_pointwise(self):
        # (1 - u0)(u0 - 1) u0 evaluated against the pointwise product
        rng = random.Random(17)
        combo = mul(mul(ONE_MINUS, mul(const(-1), ONE_MINUS, D), D), FRONT, D)
        with working_dps(30):
            for _ in range(10):
                x = Fraction(rng.randint(-280, 280), 100)
                lhs = value(combo, x)
                u = value(FRONT, x)
                rhs = (1 - u) * (u - 1) * u
                assert mpmath.almosteq(lhs, rhs, rel_eps=mpf("1e-25"), abs_eps=mpf("1e-25"))

    def test_ring_axioms_random(self):
        # a, b and c on one line of Q(sqrt(2)), so that their sums are polynomials
        rng = random.Random(29)
        for _ in range(15):
            line = random_quad(rng)
            a, b, c = (random_poly(rng, 2, line=line) for _ in range(3))
            assert add(a, b, D) == add(b, a, D)
            assert mul(a, b, D) == mul(b, a, D)
            assert add(add(a, b, D), c, D) == add(a, add(b, c, D), D)
            assert mul(mul(a, b, D), c, D) == mul(a, mul(b, c, D), D)
            assert mul(a, add(b, c, D), D) == add(mul(a, b, D), mul(a, c, D), D)


class TestDifferentiation:
    def test_constant_derivative_is_zero(self):
        assert dx(_lattice([Fraction(1, 2)], D)) == ZERO_POLY

    def test_logistic_identity_exact(self):
        # u0' = 2*kappa*s*u0*(1 - u0) for u0 = sigma on branch s = +1 or -1
        for s in (1, -1):
            assert dx(FRONT, s) == mul(rate(s), mul(FRONT, ONE_MINUS, D), D)

    def test_second_derivative_against_finite_difference(self):
        u2 = dx(dx(FRONT))
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
                d = dx(p, sign)
                f = lambda z: value(p, z, sign, 40)
                for _ in range(10):
                    x = mpf(rng.randint(-300, 300)) / 100
                    fd = (-f(x + 2*h) + 8*f(x + h) - 8*f(x - h) + f(x - 2*h)) / (12 * h)
                    exact = value(d, x, sign, 40)
                    scale = max(mpf(1), abs(f(x)), abs(exact))
                    assert abs(fd - exact) <= mpf("1e-8") * scale

    @settings(max_examples=60, deadline=None)
    @given(content=st.tuples(st.integers(), st.integers(), st.integers(1)),
           q=st.lists(st.integers(), max_size=12))
    def test_second_derivative_is_one_integer_map(self, content, q):
        # on any integer list and content, canonical or not: the series step's delta^2
        assert _delta2((*content, tuple(q))) == _delta(_delta((*content, tuple(q))))

    def test_derivative_keeps_denominator_compact(self):
        der = FRONT
        for _ in range(4):
            der = dx(der)
        # each derivative raises the sigma-degree, hence the power of
        # (E^2 + 1) in the closed form, by exactly one
        _, den = _closed_form(der, D, 1)
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
        c1 = mul(const(Fraction(-1, 2)), mul(FRONT, ONE_MINUS, D), D)
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), d=st.sampled_from([2, 3]), s=st.sampled_from([200, 5000]))
    def test_negative_m_is_sigma_near_one(self, data, d, s):
        # m < 0 stands for sigma = 1 - |m|/2^s, |m| odd and below 2^(s-1) as
        # profiles_at makes it: the same Horner integer, so the same bits, as 2^s - |m|
        line = data.draw(lines(d))
        q = data.draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
        p = _lattice([line * k for k in q + [data.draw(st.integers(1, 20))]], d)
        m = 2 * data.draw(st.integers(0, (1 << (s - 2)) - 1)) + 1
        with working_dps(30):
            assert _value_at(p, -m, s, d) == _value_at(p, (1 << s) - m, s, d)

    def test_rendering_mentions_structure(self):
        text = _term_text(FRONT, D, 0, 1)
        assert "E^2" in text and "/" in text
