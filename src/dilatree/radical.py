"""Exact arithmetic on sums of square roots of rationals.

A value is kept as sum(coef_m * sqrt(m)) over integer radicands m >= 1,
with rational coefficients and m = 1 holding the rational part.  Terms are
kept in distinct square classes: sqrt(m) and sqrt(k) are rational
multiples of each other exactly when k*m is a perfect square, and a new
term whose radicand shares a class with a stored one is folded onto it.
That takes only products and integer square roots, no factoring.  Square
roots of distinct squarefree integers are linearly independent over the
rationals (see Blömer, "Computing sums of radicals in polynomial time",
FOCS 1991), so a sum is zero exactly when every class coefficient is
zero: zero, and hence equality, is recognised exactly.

The sign of a nonzero mixed-sign sum comes from interval evaluation at
escalating precision.  The escalation can only exhaust the precision cap
on a nonzero sum too close to zero for the cap to separate, and then it
raises PrecisionExhausted rather than returning a wrong sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .errors import PrecisionExhausted, max_bits_cap
from .exactgeom import Interval, sqrt_interval


def _add_term(terms: dict[int, Fraction], coef: Fraction, m: int) -> None:
    """Add coef * sqrt(m) to `terms`, folded onto its square class."""
    root = isqrt(m)
    if root * root == m:
        coef, m = coef * root, 1
    else:
        # m is not a square, so the rational class k = 1 never matches
        for k in terms:
            km = k * m
            root = isqrt(km)
            if root * root == km:
                # sqrt(m) = sqrt(k*m) / sqrt(k) = (root / k) * sqrt(k)
                coef, m = coef * Fraction(root, k), k
                break
    total = terms.get(m, 0) + coef
    if total:
        terms[m] = total
    else:
        terms.pop(m, None)


def _from_classes(terms: dict[int, Fraction]) -> "SqrtSum":
    """A SqrtSum over nonzero terms already in distinct square classes."""
    out = object.__new__(SqrtSum)
    out._terms = terms
    return out


class SqrtSum:
    """Immutable exact sum of square roots with rational coefficients."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, Fraction]):
        self._terms = {}
        for m, c in terms.items():
            _add_term(self._terms, Fraction(c), m)

    @classmethod
    def zero(cls) -> "SqrtSum":
        return cls({})

    @classmethod
    def rational(cls, value) -> "SqrtSum":
        return cls({1: Fraction(value)})

    @classmethod
    def sqrt_of(cls, radicand, coef=1) -> "SqrtSum":
        """coef * sqrt(radicand) for a nonnegative rational radicand."""
        r = Fraction(radicand)
        if r < 0:
            raise ValueError("radicand must be nonnegative")
        if r == 0:
            return cls.zero()
        # sqrt(p/q) = sqrt(p*q) / q
        return cls({r.numerator * r.denominator:
                    Fraction(coef) / r.denominator})

    @property
    def terms(self):
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def is_rational(self) -> bool:
        return all(m == 1 for m in self._terms)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("sum has irrational terms")
        return self._terms.get(1, Fraction(0))

    def __add__(self, other: "SqrtSum") -> "SqrtSum":
        terms = dict(self._terms)
        for m, c in other._terms.items():
            _add_term(terms, c, m)
        return _from_classes(terms)

    def __neg__(self) -> "SqrtSum":
        return _from_classes({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "SqrtSum") -> "SqrtSum":
        return self + (-other)

    def scale(self, factor) -> "SqrtSum":
        f = Fraction(factor)
        if f == 0:
            return SqrtSum.zero()
        return _from_classes({m: c * f for m, c in self._terms.items()})

    def __mul__(self, other: "SqrtSum") -> "SqrtSum":
        out: dict[int, Fraction] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                _add_term(out, c1 * c2, m1 * m2)
        return _from_classes(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, SqrtSum) and (self - other).is_zero()

    def __repr__(self):
        if not self._terms:
            return "SqrtSum(0)"
        parts = []
        for m in sorted(self._terms):
            c = self._terms[m]
            parts.append(str(c) if m == 1 else f"{c}*sqrt({m})")
        return f"SqrtSum({' + '.join(parts)})"

    def eval_interval(self, bits: int) -> Interval:
        lo = Fraction(0)
        hi = Fraction(0)
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

    def sign(self, *, start_bits: int = 64) -> int:
        """Certified sign in {-1, 0, +1}.

        Zero is recognized exactly through the square classes; a nonzero
        value is separated from zero by interval refinement from
        `start_bits` up to the ceiling, never above it, and
        PrecisionExhausted means it is nonzero but closer to zero than that.
        """
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
                raise PrecisionExhausted(
                    f"sign of {self!r} undecided at {bits} bits",
                    bits=bits, context=self)
            bits = min(2 * bits, limit)
