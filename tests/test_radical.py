import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf, sqrt as msqrt

from dilatree.errors import PrecisionExhausted
from dilatree.radical import SqrtSum


def test_reduction_to_squarefree():
    assert SqrtSum.sqrt_of(8) == SqrtSum.sqrt_of(2).scale(2)
    assert SqrtSum.sqrt_of(50) == SqrtSum.sqrt_of(2).scale(5)
    assert SqrtSum.sqrt_of(50) != SqrtSum.sqrt_of(2).scale(7)
    assert SqrtSum.sqrt_of(49).rational_value() == 7
    assert SqrtSum.sqrt_of(Fraction(1, 2)) \
        == SqrtSum.sqrt_of(2).scale(Fraction(1, 2))
    assert SqrtSum.sqrt_of(Fraction(9, 4)).rational_value() == Fraction(3, 2)
    assert (SqrtSum.sqrt_of(12, coef=Fraction(1, 2))
            - SqrtSum.sqrt_of(3)).is_zero()
    assert SqrtSum.sqrt_of(0).is_zero()


def test_same_value_same_form():
    a = SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(8)
    b = SqrtSum.sqrt_of(18)
    assert a == b
    assert (a - b).is_zero()
    assert (SqrtSum.sqrt_of(12) - SqrtSum.sqrt_of(3).scale(2)).is_zero()


def test_rational_detection():
    s = SqrtSum.rational(Fraction(3, 2)) + SqrtSum.sqrt_of(Fraction(25, 4))
    assert s.is_rational()
    assert s.rational_value() == 4
    assert not (SqrtSum.sqrt_of(2)).is_rational()
    with pytest.raises(ValueError):
        SqrtSum.sqrt_of(2).rational_value()


def test_product_difference_of_squares():
    a = SqrtSum.sqrt_of(2) - SqrtSum.rational(1)
    b = SqrtSum.sqrt_of(2) + SqrtSum.rational(1)
    assert (a * b).rational_value() == 1


def test_signs(monkeypatch):
    assert SqrtSum.zero().sign() == 0
    assert SqrtSum.sqrt_of(2).sign() == 1
    assert (-SqrtSum.sqrt_of(2)).sign() == -1
    # sqrt(2) + sqrt(3) - sqrt(5) > 0, mixed signs force numeric separation
    s = SqrtSum.sqrt_of(2) + SqrtSum.sqrt_of(3) - SqrtSum.sqrt_of(5)
    assert s.sign() == 1
    assert (-s).sign() == -1
    # a tight but nonzero difference; negative by concavity of sqrt
    t = (SqrtSum.sqrt_of(51) - SqrtSum.sqrt_of(50).scale(2)
         + SqrtSum.sqrt_of(49))
    assert t.sign() == -1
    # nonzero, but closer to zero than a 64-bit cap can resolve
    tiny = SqrtSum.sqrt_of(10 ** 30 + 1) - SqrtSum.rational(10 ** 15)
    monkeypatch.setenv("DILATREE_MAX_BITS", "64")
    with pytest.raises(PrecisionExhausted) as info:
        tiny.sign()
    assert info.value.bits == 64
    monkeypatch.delenv("DILATREE_MAX_BITS")
    assert tiny.sign() == 1


def test_sign_agrees_with_float_oracle():
    mp.dps = 60
    rng = random.Random(99)
    for _ in range(200):
        terms = {}
        val = mpf(0)
        for _ in range(rng.randint(1, 5)):
            m = rng.randint(2, 400)
            c = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
            s = SqrtSum.sqrt_of(m, coef=c)
            for k, v in s.terms.items():
                terms[k] = terms.get(k, Fraction(0)) + v
            val += mpf(c.numerator) / c.denominator * msqrt(m)
        total = SqrtSum(terms)
        if abs(val) < mpf(10) ** -40:
            assert total.sign() == 0
        else:
            assert total.sign() == (1 if val > 0 else -1)


def test_compare_sums():
    a = SqrtSum.sqrt_of(2).scale(2)          # 2 sqrt(2) = sqrt(8)
    b = SqrtSum.sqrt_of(8)
    assert (a - b).sign() == 0
    assert (a - SqrtSum.rational(3)).sign() == -1
    assert (a - SqrtSum.rational(Fraction(28, 10))).sign() == 1


_LARGE_PRIMES = [p for p in range(4097, 20000)
                 if all(p % d for d in range(2, int(p ** 0.5) + 1))]


@given(st.sampled_from(_LARGE_PRIMES),
       st.integers(min_value=1, max_value=10**9),
       st.fractions(max_denominator=1000).filter(bool))
def test_large_prime_square_factor_cancels(p, m, c):
    # no small factor reveals the square p^2 inside p^2 * m, yet the
    # difference is exactly zero and must be recognised as such
    hidden = SqrtSum.sqrt_of(p * p * m, coef=c) - SqrtSum.sqrt_of(m).scale(c * p)
    assert hidden.sign() == 0
    assert hidden.is_zero()


def test_eval_interval_contains_value():
    mp.dps = 40
    s = SqrtSum.sqrt_of(7).scale(3) - SqrtSum.sqrt_of(11) + SqrtSum.rational(Fraction(1, 3))
    val = 3 * msqrt(7) - msqrt(11) + mpf(1) / 3
    for bits in (16, 64, 128):
        enc = s.eval_interval(bits)
        lo = mpf(enc.lo.numerator) / enc.lo.denominator
        hi = mpf(enc.hi.numerator) / enc.hi.denominator
        assert lo <= val <= hi
