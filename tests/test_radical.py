import random
import re
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf, sqrt as msqrt

from dilatree import radical
from dilatree.errors import PrecisionExhausted, max_bits_cap
from dilatree.exactgeom import Interval, sqrt_interval, sqrt_ints
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


# ---------------------------------------------------------------------------
# the integer-numerator SqrtSum against the Fraction one it replaced


def _ref_add_term(terms, coef, m):
    root = isqrt(m)
    if root * root == m:
        coef, m = coef * root, 1
    else:
        for k in terms:
            km = k * m
            root = isqrt(km)
            if root * root == km:
                coef, m = coef * Fraction(root, k), k
                break
    total = terms.get(m, 0) + coef
    if total:
        terms[m] = total
    else:
        terms.pop(m, None)


def _ref_from_classes(terms):
    out = object.__new__(RefSqrtSum)
    out._terms = terms
    return out


class RefSqrtSum:
    """The Fraction-coefficient SqrtSum, kept as the reference."""

    __slots__ = ("_terms",)

    def __init__(self, terms):
        self._terms = {}
        for m, c in terms.items():
            _ref_add_term(self._terms, Fraction(c), m)

    @classmethod
    def rational(cls, value):
        return cls({1: Fraction(value)})

    @classmethod
    def sqrt_of(cls, radicand, coef=1):
        r = Fraction(radicand)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        if r == 0:
            return cls({})
        return cls({r.numerator * r.denominator:
                    Fraction(coef) / r.denominator})

    @property
    def terms(self):
        return dict(self._terms)

    def is_rational(self):
        return all(m == 1 for m in self._terms)

    def rational_value(self):
        if not self.is_rational():
            raise ValueError("sum has irrational terms")
        return self._terms.get(1, Fraction(0))

    def __add__(self, other):
        terms = dict(self._terms)
        for m, c in other._terms.items():
            _ref_add_term(terms, c, m)
        return _ref_from_classes(terms)

    def __neg__(self):
        return _ref_from_classes({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, factor):
        f = Fraction(factor)
        if f == 0:
            return RefSqrtSum({})
        return _ref_from_classes({m: c * f for m, c in self._terms.items()})

    def __mul__(self, other):
        out = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _ref_add_term(out, c1 * c2, m1 * m2)
        return _ref_from_classes(out)

    def __repr__(self):
        if not self._terms:
            return "SqrtSum(0)"
        parts = []
        for m in sorted(self._terms):
            c = self._terms[m]
            parts.append(str(c) if m == 1 else f"{c}*sqrt({m})")
        return f"SqrtSum({' + '.join(parts)})"

    def eval_interval(self, bits):
        lo = hi = Fraction(0)
        for m, c in self._terms.items():
            if m == 1:
                lo += c
                hi += c
                continue
            enc = sqrt_interval(Fraction(m), bits)
            if c >= 0:
                lo += c * enc.lo
                hi += c * enc.hi
            else:
                lo += c * enc.hi
                hi += c * enc.lo
        return Interval(lo, hi, bits)

    def sign(self, *, start_bits=64):
        if not self._terms:
            return 0
        coefs = list(self._terms.values())
        if all(c > 0 for c in coefs):
            return 1
        if all(c < 0 for c in coefs):
            return -1
        limit = max_bits_cap()
        bits = min(start_bits, limit)
        while True:
            enc = self.eval_interval(bits)
            if enc.lo > 0:
                return 1
            if enc.hi < 0:
                return -1
            if bits >= limit:
                raise PrecisionExhausted("undecided", bits=bits)
            bits = min(2 * bits, limit)


_coefs = st.one_of(
    st.fractions(max_denominator=50, min_value=-100, max_value=100),
    # gadget-like coefficients over 2^80
    st.integers(-(1 << 90), 1 << 90).map(lambda a: Fraction(a, 1 << 80)))

_radicands = st.one_of(
    st.integers(0, 400),
    st.fractions(min_value=0, max_value=200, max_denominator=30),
    # squares of large primes hidden in the radicand
    st.tuples(st.sampled_from(_LARGE_PRIMES), st.integers(1, 10 ** 6))
    .map(lambda pm: pm[0] * pm[0] * pm[1]),
    # above 2^(2 bits) even at 300 bits, so sqrt_ints gives negative t
    st.integers(1 << 601, 1 << 700))


@st.composite
def _leaf(draw):
    m, c = draw(_radicands), draw(_coefs)
    if draw(st.booleans()):
        return ("sqrt", m, c)
    if draw(st.booleans()):
        return ("rational", c)
    # a term and the same value written over another member of its class
    k = draw(st.integers(2, 60))
    return ("pair", m, c, k)


@st.composite
def _programs(draw):
    leaves = draw(st.lists(_leaf(), min_size=1, max_size=5))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["add", "sub", "mul", "scale", "neg"]),
        st.integers(0, 40), st.integers(0, 40), _coefs), max_size=8))
    return leaves, ops


def _run(cls, program):
    leaves, ops = program
    pool = []
    for leaf in leaves:
        if leaf[0] == "sqrt":
            pool.append(cls.sqrt_of(leaf[1], leaf[2]))
        elif leaf[0] == "rational":
            pool.append(cls.rational(leaf[1]))
        else:
            # c sqrt(k^2 m) - c k sqrt(m) cancels to zero, and c sqrt(k^2 m)
            # + sqrt(m) folds onto the class of k^2 m
            _, m, c, k = leaf
            pool.append(cls.sqrt_of(k * k * m, c) - cls.sqrt_of(m, c * k))
            pool.append(cls.sqrt_of(k * k * m, c) + cls.sqrt_of(m))
    for name, i, j, f in ops:
        a, b = pool[i % len(pool)], pool[j % len(pool)]
        if name == "add":
            pool.append(a + b)
        elif name == "sub":
            pool.append(a - b)
        elif name == "mul":
            pool.append(a * b)
        elif name == "scale":
            pool.append(a.scale(f))
        else:
            pool.append(-a)
    return pool


def _outcome(fn):
    try:
        return fn()
    except PrecisionExhausted as exc:
        return ("exhausted", exc.bits)


@settings(max_examples=150, deadline=None)
@given(_programs())
def test_matches_fraction_reference(program):
    for new, ref in zip(_run(SqrtSum, program), _run(RefSqrtSum, program)):
        assert new.terms == ref.terms
        # numerators over one positive denominator, in lowest terms
        assert new._den > 0 and gcd(new._den, *new._terms.values()) == 1
        assert repr(new) == repr(ref)
        assert new.is_rational() == ref.is_rational()
        if ref.is_rational():
            assert new.rational_value() == ref.rational_value()
        for bits in (1, 8, 64, 300):
            got, want = new.eval_interval(bits), ref.eval_interval(bits)
            assert (got.lo, got.hi, got.bits) == (want.lo, want.hi, want.bits)
        for start in (1, 64):
            assert new.sign(start_bits=start) == ref.sign(start_bits=start)
        with pytest.MonkeyPatch.context() as mp_env:
            mp_env.setenv("DILATREE_MAX_BITS", "64")
            assert _outcome(new.sign) == _outcome(ref.sign)


def test_matches_fraction_reference_near_zero(monkeypatch):
    # nonzero sums that need several rungs, or more than a 64-bit cap
    cases = [
        (SqrtSum.sqrt_of(10 ** 30 + 1) - SqrtSum.rational(10 ** 15),
         RefSqrtSum.sqrt_of(10 ** 30 + 1) - RefSqrtSum.rational(10 ** 15)),
    ]
    for n in (10 ** 40, 3 ** 90):
        # sqrt(n^2 + 1) - sqrt(n^2 - 1) - 1/n is about 1/(8 n^5)
        cases.append(tuple(cls.sqrt_of(n * n + 1) - cls.sqrt_of(n * n - 1)
                           - cls.rational(Fraction(1, n))
                           for cls in (SqrtSum, RefSqrtSum)))
    for new, ref in cases:
        assert _outcome(new.sign) == _outcome(ref.sign)
        monkeypatch.setenv("DILATREE_MAX_BITS", "64")
        assert _outcome(new.sign) == _outcome(ref.sign) == ("exhausted", 64)
        monkeypatch.delenv("DILATREE_MAX_BITS")


def test_validation_does_not_depend_on_the_value():
    for s in (SqrtSum.sqrt_of(2), SqrtSum.zero(),
              SqrtSum.sqrt_of(2) - SqrtSum.sqrt_of(3)):
        with pytest.raises(ValueError, match="start_bits"):
            s.sign(start_bits=0)
        with pytest.raises(ValueError, match="bits must be positive"):
            s.eval_interval(0)
    for radicand in (-3, Fraction(1, 2), 2.0):
        with pytest.raises(ValueError, match=re.escape(f"radicand {radicand!r}")):
            SqrtSum({radicand: 1})
    with pytest.raises(ValueError, match="radicand"):
        SqrtSum.sqrt_of(-3)


def test_sign_encloses_each_term_once_per_rung(monkeypatch):
    # one sqrt_ints per irrational term per rung, stopping at the rung
    # the Fraction version stopped at: 64 bits here, 128 for `tiny`
    calls = []

    def counted(p, q, bits):
        calls.append((p, bits))
        return sqrt_ints(p, q, bits)

    monkeypatch.setattr(radical, "sqrt_ints", counted)
    t = SqrtSum.sqrt_of(51) - SqrtSum.sqrt_of(50).scale(2) + SqrtSum.sqrt_of(49)
    assert t.sign() == -1
    assert sorted(calls) == [(50, 64), (51, 64)]
    calls.clear()
    tiny = SqrtSum.sqrt_of(10 ** 30 + 1) - SqrtSum.rational(10 ** 15)
    assert tiny.sign() == 1
    assert calls == [(10 ** 30 + 1, 64), (10 ** 30 + 1, 128)]
