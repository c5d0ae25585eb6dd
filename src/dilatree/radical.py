"""Exact arithmetic on sums of square roots of rationals.

A value is kept as (1/den) * sum(num_m * sqrt(m)) over integer radicands
m >= 1: one dict from radicand to a nonzero integer numerator num_m, and
one positive integer denominator den per sum, with m = 1 holding the
rational part.  The numerators and den share no common factor.  Terms are
kept in distinct square classes: sqrt(m) and sqrt(k) are rational
multiples of each other exactly when k*m is a perfect square, and a new
term whose radicand shares a class with a stored one is folded onto it.
That takes only products and integer square roots, no factoring.  Square
roots of distinct squarefree integers are linearly independent over the
rationals (see Blömer, "Computing sums of radicals in polynomial time",
FOCS 1991), so a sum is zero exactly when every class coefficient is
zero: zero, and hence equality, is recognised exactly.

Inside, every operation is integer arithmetic: operands are brought to a
common denominator with gcd and lcm, and the result is reduced by one
gcd.  `Fraction`s appear only at the edges: the coefficients given to
the constructor, `sqrt_of` and `scale`, and the values `terms`,
`rational_value`, `eval_interval` and `repr` give back.  The class key of
every term and the value of every coefficient num_m/den are those that
folding each term in as a `Fraction` would give.

The sign of a nonzero mixed-sign sum comes from interval evaluation at
escalating precision.  At each precision every irrational term's
enclosure [s, s+1] / 2^t of sqrt(m) from `sqrt_ints(m, 1, bits)` is put
on the common grid 2^-T, T the largest t and at least 0, so the sum lies
in [lo, hi] / (den * 2^T) with integer lo and hi.  These are exactly the
endpoints that adding up num_m/den * [s, s+1] / 2^t in rationals gives,
and den * 2^T is positive, so lo > 0 and hi < 0 decide the sign at the
same precision as the rational endpoints would.  The escalation can only
exhaust the precision cap on a nonzero sum too close to zero for the cap
to separate, and then it raises PrecisionExhausted rather than returning
a wrong sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

from .errors import PrecisionExhausted, max_bits_cap
from .exactgeom import Interval, sqrt_ints


def _rational(value) -> Fraction | int:
    """`value` as an int or Fraction, both of which carry numerator and
    denominator."""
    return value if isinstance(value, (int, Fraction)) else Fraction(value)


def _from_classes(terms: dict[int, int], den: int) -> "SqrtSum":
    """A SqrtSum over nonzero numerators already in distinct square classes,
    reduced by their common factor with den."""
    if den > 1:
        g = gcd(den, *terms.values())
        if g > 1:
            terms = {m: c // g for m, c in terms.items()}
            den //= g
    out = object.__new__(SqrtSum)
    out._terms = terms
    out._den = den
    return out


def _collect(out: dict[int, int], den: int, pairs) -> "SqrtSum":
    """Fold each term (c/den) * sqrt(m) of `pairs` onto `out`, numerators
    over den in distinct square classes, and return the sum.

    A term folded onto a stored key k takes the factor sqrt(m)/sqrt(k) =
    root/k with root = sqrt(k*m); when its reduced denominator q does not
    divide the term's numerator, everything collected so far and every
    later term is multiplied up by the missing factor.
    """
    up = 1                       # out is over den * up
    for c, m in pairs:
        c *= up
        root = isqrt(m)
        if root * root == m:
            c, m = c * root, 1
        else:
            # m is not a square, so the rational class k = 1 never matches
            for k in out:
                km = k * m
                root = isqrt(km)
                if root * root == km:
                    break
            else:
                k = 0
            if k:
                # sqrt(m) = (root / k) sqrt(k) = (root/g) / (k/g) sqrt(k)
                g = gcd(root, k)
                q = k // g
                r = q // gcd(c, q)
                if r > 1:
                    for key in out:
                        out[key] *= r
                    up *= r
                    c *= r
                c, m = c // q * (root // g), k
        total = out.get(m, 0) + c
        if total:
            out[m] = total
        else:
            out.pop(m, None)
    return _from_classes(out, den * up)


class SqrtSum:
    """Immutable exact sum of square roots with rational coefficients.

    `_terms` maps each class key m to an integer numerator and `_den` is
    the one positive denominator, in lowest terms with them.  Fractions
    are taken and given back only at the API edges.  Every coefficient
    num_m/_den, and so every enclosure endpoint, is exactly the one the
    Fraction form would hold, and `_den` > 0 keeps its sign, so `sign`
    decides at the same rung as that form would.
    """

    __slots__ = ("_terms", "_den")

    def __init__(self, terms: dict[int, Fraction]):
        coefs = []
        for m, c in terms.items():
            if not isinstance(m, int) or m < 0:
                raise ValueError(
                    f"radicand {m!r} must be a nonnegative integer")
            coefs.append((_rational(c), m))
        den = lcm(*(c.denominator for c, _ in coefs))
        made = _collect({}, den, ((c.numerator * (den // c.denominator), m)
                                  for c, m in coefs))
        self._terms, self._den = made._terms, made._den

    @classmethod
    def zero(cls) -> "SqrtSum":
        return _from_classes({}, 1)

    @classmethod
    def rational(cls, value) -> "SqrtSum":
        return cls({1: value})

    @classmethod
    def sqrt_of(cls, radicand, coef=1) -> "SqrtSum":
        """coef * sqrt(radicand) for a nonnegative rational radicand."""
        r, c = _rational(radicand), _rational(coef)
        # sqrt(p/q) = sqrt(p*q) / q
        m, num, den = (r.numerator * r.denominator, c.numerator,
                       c.denominator * r.denominator)
        if m < 0:
            raise ValueError("radicand must be nonnegative")
        if not m or not num:
            return _from_classes({}, 1)
        root = isqrt(m)
        if root * root == m:
            m, num = 1, num * root
        return _from_classes({m: num}, den)

    @property
    def terms(self):
        den = self._den
        return {m: Fraction(c, den) for m, c in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(m == 1 for m in self._terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("sum has irrational terms")
        return Fraction(self._terms.get(1, 0), self._den)

    def _combine(self, other: "SqrtSum", sign: int) -> "SqrtSum":
        """self + sign * other, over the lcm of the two denominators."""
        d1, d2 = self._den, other._den
        g = gcd(d1, d2)
        up1, up2 = d2 // g, sign * d1 // g
        out = {m: c * up1 for m, c in self._terms.items()}
        return _collect(out, d1 * up1,
                        ((c * up2, m) for m, c in other._terms.items()))

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        return self._combine(other, 1)

    def __neg__(self) -> "SqrtSum":
        return _from_classes({m: -c for m, c in self._terms.items()},
                             self._den)

    def __sub__(self, other: "SqrtSum") -> "SqrtSum":
        return self._combine(other, -1)

    def scale(self, factor) -> "SqrtSum":
        f = _rational(factor)
        a = f.numerator
        if not a:
            return _from_classes({}, 1)
        return _from_classes({m: c * a for m, c in self._terms.items()},
                             self._den * f.denominator)

    def __mul__(self, other: "SqrtSum") -> "SqrtSum":
        return _collect({}, self._den * other._den,
                        ((c1 * c2, m1 * m2)
                         for m1, c1 in self._terms.items()
                         for m2, c2 in other._terms.items()))

    def __eq__(self, other) -> bool:
        return isinstance(other, SqrtSum) and (self - other).is_zero()

    def __repr__(self):
        if not self._terms:
            return "SqrtSum(0)"
        parts = []
        for m in sorted(self._terms):
            c = Fraction(self._terms[m], self._den)
            parts.append(str(c) if m == 1 else f"{c}*sqrt({m})")
        return f"SqrtSum({' + '.join(parts)})"

    def _enclose(self, bits: int) -> tuple[int, int, int]:
        """Integers (lo, hi, T) with lo <= den * 2^T * value <= hi, from
        each irrational term's `sqrt_ints` enclosure at `bits` put on the
        grid 2^-T, T the largest t and at least 0."""
        if bits < 1:
            raise ValueError("bits must be positive")
        lo = hi = big_t = 0
        for m, c in self._terms.items():
            if m == 1:
                continue
            s, t, exact = sqrt_ints(m, 1, bits)
            if t > big_t:
                lo <<= t - big_t
                hi <<= t - big_t
                big_t = t
            a = c * s
            b = a if exact else a + c
            if c < 0:
                a, b = b, a
            lo += a << (big_t - t)
            hi += b << (big_t - t)
        rat = self._terms.get(1, 0) << big_t
        return lo + rat, hi + rat, big_t

    def eval_interval(self, bits: int) -> Interval:
        lo, hi, big_t = self._enclose(bits)
        scale = self._den << big_t
        return Interval(Fraction(lo, scale), Fraction(hi, scale), bits)

    def sign(self, *, start_bits: int = 64) -> int:
        """Certified sign in {-1, 0, +1}.

        Zero is recognized exactly through the square classes; a nonzero
        value is separated from zero by interval refinement from
        `start_bits` up to the ceiling, never above it, and
        PrecisionExhausted means it is nonzero but closer to zero than that.
        """
        if start_bits < 1:
            raise ValueError("start_bits must be positive")
        coefs = self._terms.values()
        if not coefs:
            return 0
        if all(c > 0 for c in coefs):
            return 1
        if all(c < 0 for c in coefs):
            return -1
        limit = max_bits_cap()
        bits = min(start_bits, limit)
        while True:
            lo, hi, _ = self._enclose(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            if bits >= limit:
                raise PrecisionExhausted(
                    f"sign of {self!r} undecided at {bits} bits",
                    bits=bits, context=self)
            bits = min(2 * bits, limit)
