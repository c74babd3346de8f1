import math
import random
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_man_exp, fzero, mpf_abs, mpf_add, mpf_div, mpf_mul, mpf_neg

from bhhpm import (
    BHProblem,
    QuadraticNumber,
    case_preset,
    squarefree_decompose,
    working_dps,
)
from bhhpm.errors import AlgebraDomainError
from bhhpm.scalars import RND, _product, _quotient, _sum, surd_value, to_mpf


def quad(a, b=0, d=0):
    return QuadraticNumber(Fraction(a), Fraction(b), d)


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

    def test_rational_factor_multiplies_as_a_field_element(self):
        # an int or Fraction factor, on either side, gives the parts of the
        # product with that factor as a QuadraticNumber
        rng = random.Random(5)
        for _ in range(200):
            q = quad(Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                     Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
                     rng.choice([0, 2, 3, 5, 999950891]))
            for r in (rng.randint(-9, 9), Fraction(rng.randint(-99, 99), rng.randint(1, 99))):
                expected = q * quad(r)
                for product in (q * r, r * q):
                    assert (product.rational, product.radical, product.radicand) == (
                        expected.rational, expected.radical, expected.radicand)

    def test_coerce_rejects_text(self):
        with pytest.raises(TypeError):
            QuadraticNumber.coerce("1")

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


def fresh_surd(u: int, v: int, d: int = 3) -> mpf:
    """u + v*sqrt(d) by mpf operators, sqrt(d) computed anew: the sum where
    u*v >= 0, else the conjugate (u^2 - v^2*d)/(u - v*sqrt(d))."""
    if not v:
        return mpf(u)
    root = v * mpmath.sqrt(d)
    return u + root if u * v >= 0 else (u * u - v * v * d) / (u - root)


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

    def test_fraction_to_mpf_exact(self):
        with working_dps(30):
            assert to_mpf(Fraction(1, 4)) == mpf("0.25")

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

        for digits in (30, 80, 30):
            with working_dps(digits):
                assert to_mpf(kappa) == fresh_surd(u, v) / w
                assert surd_value(u, v, 3) == fresh_surd(u, v)._mpf_
                assert surd_value(-u, v, 3) == fresh_surd(-u, v)._mpf_
        with working_dps(80):
            value = to_mpf(kappa)
        with mpmath.workdps(200):
            assert abs(value - fresh_surd(u, v) / w) / value < mpf("1e-78")

    @pytest.mark.parametrize("u,v", [
        (0, 7), (0, -7), (10**40 + 1, 3 * 10**38 + 7), (-(10**40 + 1), -(3 * 10**38 + 7)),
        (math.isqrt(3 * 10**80), -10**40), (-math.isqrt(3 * 10**80), 10**40),
        (10**40 + 1, -(3 * 10**38 + 7)), (-(10**40 + 1), 3 * 10**38 + 7), (5, 0), (-5, 0),
        # a numerator long enough that its top bits alone make the quotient, and
        # one short enough for mpf_rdiv_int
        (math.isqrt(3 * 10**400), -10**200), (2, -1),
    ])
    def test_route_read_from_signs(self, u, v):
        # surd_value picks its route from the signs of u and v; the bits are those
        # of the route picked by the sign of u*v, with opposite signs (near
        # cancellation included) through the conjugate
        for digits in (30, 45):
            with working_dps(digits):
                assert surd_value(u, v, 3) == fresh_surd(u, v)._mpf_, (u, v, digits)
                # a scale S gives the bits of u*S + v*S*sqrt(d); 0 is the zero value
                for scale in (-(3**90 + 2), 0):
                    assert (surd_value(u, v, 3, 7, scale)
                            == (fresh_surd(u * scale, v * scale) / 7)._mpf_), (u, v, scale)

    def test_quotient_by_a_power_of_two_keeps_the_bits_below_the_numerators_top(self):
        # with u = 2^e - v*sqrt(3) rounded, u - v*sqrt(3) rounds to 2^e: the quotient
        # by its mantissa 1 leaves no remainder, so only the numerator bits below
        # its top prec + 6 carry the sticky bit, and for a few of these v the top
        # bits end exactly half a unit past the precision, where that bit decides
        for digits in (30, 45):
            with working_dps(digits):
                for k in range(100, 220):
                    v = -(3**k)
                    root = int(-v * mpmath.sqrt(3))  # more than prec bits: an integer
                    u = (1 << root.bit_length()) - root
                    assert surd_value(u, v, 3) == fresh_surd(u, v)._mpf_, (digits, k)

    def test_sum_keeps_the_bits_of_mpf_add_where_the_integer_outweighs(self):
        # u outweighs v*sqrt(3) by more than prec + 4 bits, so mpf_add keeps the
        # rounded v*sqrt(3) only as a sticky bit; u has more than prec bits, ends in
        # 200 zero bits and lies just under a half unit past the precision, and
        # v*sqrt(3) reaches above those zeros: the exact sum rounds the other way
        with working_dps(30):
            prec = mpmath.mp.prec
            v = (1 << 219) + 12345
            top = prec + 261
            u = (1 << top) + (1 << (top - prec)) - (1 << 200)
            root = int(v * mpmath.sqrt(3))  # v*sqrt(3) as rounded: above 2^200, an integer
            assert fresh_surd(u, v) != mpf(u + root)
            for su, sv in ((u, v), (-u, -v), (u, -v), (-u, v)):
                assert surd_value(su, sv, 3) == fresh_surd(su, sv)._mpf_, (su > 0, sv > 0)


def signed_integers(max_bits: int):
    """Integers of either sign with up to ``max_bits`` bits, each size as likely."""
    return st.integers(0, max_bits).flatmap(lambda bits: st.integers(-(1 << bits), 1 << bits))


@st.composite
def surd_inputs(draw):
    """(u, v, d, den, scale, shift) for ``surd_value``: both signs, u near -v*sqrt(d)
    half the time, odd and even den, a scale of up to 3000 bits (0 among them)."""
    d = draw(st.sampled_from([2, 3, 5, 999950891]))
    v = draw(signed_integers(400))
    if v and draw(st.booleans()):
        u = (-1 if v > 0 else 1) * math.isqrt(v * v * d) + draw(st.integers(-3, 3))
    else:
        u = draw(signed_integers(400))
    den = draw(st.integers(1, 1 << 64)) << draw(st.integers(0, 3))
    return u, v, d, den, draw(signed_integers(3000)), draw(st.integers(0, 5000))


@settings(max_examples=150, deadline=None)
@given(args=surd_inputs(), digits=st.sampled_from([30, 45, 300]))
def test_surd_value_keeps_the_bits_of_the_mpf_route(args, digits):
    # every route: the sum where u*v >= 0, the conjugate quotient (from the
    # numerator's top bits or by mpf_rdiv_int), scale 0, and den*2^shift
    u, v, d, den, scale, shift = args
    with working_dps(digits):
        expected = mpmath.ldexp(fresh_surd(u * scale, v * scale, d) / den, -shift)
        assert surd_value(u, v, d, den, scale, shift) == expected._mpf_


@st.composite
def raw_pairs(draw):
    """(s, t, prec): two raw values of at most prec bits, mantissas of either sign and
    often a power of 2 or all ones.  t's exponent lies about 100 below s's, or t's top
    bit about prec + 4 below s's top (either side of both edges of mpf_add's sticky
    branch), or a few bits away; or t is -s (exact cancellation), zero, s's half unit
    (a tie, which carries s's all ones up to a power of 2), or lies a little more than
    prec bits below s = 2^e of the other sign, where only the exact sum borrows."""
    prec = draw(st.sampled_from([53, 136, 1000]))

    def value(exp: int, bits: int = 0, sign: int = 0) -> tuple:
        bits = bits or draw(st.integers(1, prec))
        top = 1 << (bits - 1)
        man = draw(st.sampled_from([top, 2 * top - 1]) | st.integers(top, 2 * top - 1))
        return from_man_exp(man if (sign or draw(st.sampled_from([1, -1]))) > 0 else -man, exp)

    kind = draw(st.sampled_from(["offset", "top", "near", "cancel", "zero", "tie", "borrow"]))
    s = value(draw(st.integers(-1200, 1200)))
    if kind == "tie":
        s = from_man_exp((s[1] | 1 << (prec - 1) | 1) * (-1 if s[0] else 1), s[2])  # prec bits
        t = from_man_exp(draw(st.sampled_from([1, -1])), s[2] - 1)
    elif kind == "borrow":
        s = from_man_exp(1 if s[0] else -1, s[2])
        gap = prec + draw(st.sampled_from([1, 4, 5]) | st.integers(1, 8))  # between tops
        t = value(s[2] - gap - prec + 1, prec, 1 if s[0] else -1)
    elif kind in ("offset", "top", "near"):
        bits = draw(st.integers(1, prec))
        gap = {"offset": 100 + s[3] - bits, "top": prec + 4, "near": 0}[kind]
        t = value(s[2] + s[3] - bits - gap + draw(st.integers(-3, 3)), bits)
    else:
        t = fzero if kind == "zero" else mpf_neg(s)
    return (s, t, prec) if draw(st.booleans()) else (t, s, prec)


@settings(max_examples=150, deadline=None)
@given(args=raw_pairs())
# -1 and a value 300 bits below it: mpf_add keeps the smaller as a sticky bit, and the
# sum takes the sign of -1; -1 and a 53-bit value whose top lies prec + 1 bits below
# its own: the exact sum borrows down to 1 - 2^-53, and a sticky bit would not
@example(args=(from_man_exp(-1, 0), from_man_exp(1, -300), 53))
@example(args=(from_man_exp(-1, 0), from_man_exp((1 << 53) - 3, -106), 53))
def test_raw_helpers_keep_the_bits_of_libmp(args):
    # the one-normalize sum, product and quotient round as mpf_add, mpf_mul and
    # mpf_abs(mpf_div) do, in both sticky branches of the sum and in its exact one
    s, t, prec = args
    assert _sum(s, t, prec) == mpf_add(s, t, prec, RND)
    assert _product(s, t, prec) == mpf_mul(s, t, prec, RND)
    if t != fzero:
        assert _quotient(s, t, prec) == mpf_abs(mpf_div(s, t, prec, RND))
