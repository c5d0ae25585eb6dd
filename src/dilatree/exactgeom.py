"""Exact plane geometry over rational coordinates.

Every predicate in this module is decided exactly.  Square roots never
appear as scalars; they are enclosed in dyadic intervals (`sqrt_interval`)
whose width contracts geometrically with the requested precision, which
is what the certified comparison machinery in the rest of the package is
built on.  The enclosures and circle crossings are computed by integer
cores on numerators over one denominator (`sqrt_ints`, `crossing_ints`);
`sqrt_interval` is the `Fraction` wrapper of the first, and `nearest`
rounds a crossing onto a dyadic grid.  `segments_cross_ints` is the
integer core of the segment crossing test.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .errors import NoIntersection

@dataclass(frozen=True, slots=True)
class Point:
    x: Fraction
    y: Fraction


def pt(x, y) -> Point:
    """Build a Point, coercing each coordinate through Fraction."""
    return Point(Fraction(x), Fraction(y))


def squared_distance(p: Point, q: Point) -> Fraction:
    dx = p.x - q.x
    dy = p.y - q.y
    return dx * dx + dy * dy


class Orientation(enum.IntEnum):
    CLOCKWISE = -1
    COLLINEAR = 0
    COUNTERCLOCKWISE = 1


def orientation(a: Point, b: Point, c: Point) -> Orientation:
    """Orientation of the ordered triple (a, b, c), decided exactly."""
    cross = (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
    if cross > 0:
        return Orientation.COUNTERCLOCKWISE
    if cross < 0:
        return Orientation.CLOCKWISE
    return Orientation.COLLINEAR


@dataclass(frozen=True, slots=True)
class Segment:
    a: Point
    b: Point

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("segment endpoints must be distinct")


def _collinear_overlap_is_positive(s: Segment, t: Segment) -> bool:
    # All four endpoints collinear; reduce to 1D along the dominant axis.
    dx = abs(s.a.x - s.b.x)
    dy = abs(s.a.y - s.b.y)
    key = (lambda p: p.x) if dx >= dy else (lambda p: p.y)
    lo1, hi1 = sorted((key(s.a), key(s.b)))
    lo2, hi2 = sorted((key(t.a), key(t.b)))
    return min(hi1, hi2) > max(lo1, lo2)


def segments_properly_cross(s: Segment, t: Segment) -> bool:
    """True iff the segments meet at a point interior to both, or overlap
    in a collinear sub-segment of positive length.

    Sharing only an endpoint, or an endpoint of one lying in the interior
    of the other, does not count: the meeting point must be interior to
    both segments.
    """
    o1 = orientation(s.a, s.b, t.a)
    o2 = orientation(s.a, s.b, t.b)
    o3 = orientation(t.a, t.b, s.a)
    o4 = orientation(t.a, t.b, s.b)
    if o1 == o2 == o3 == o4 == Orientation.COLLINEAR:
        return _collinear_overlap_is_positive(s, t)
    return o1 * o2 < 0 and o3 * o4 < 0


def segments_cross_ints(a, b, c, d) -> bool:
    """`segments_properly_cross` of the segments ab and cd, for points
    given as (x, y) pairs of integer numerators over one positive
    denominator, so orientation signs and overlaps are those of the
    points themselves."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = a, b, c, d
    o1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    o2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    o3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    o4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    if o1 == o2 == o3 == o4 == 0:
        # all four collinear: overlap along ab's dominant axis
        k = int(abs(bx - ax) < abs(by - ay))
        (s0, s1), (t0, t1) = sorted((a[k], b[k])), sorted((c[k], d[k]))
        return min(s1, t1) > max(s0, t0)
    return o1 * o2 < 0 and o3 * o4 < 0


# ---------------------------------------------------------------------------
# Dyadic intervals and square-root enclosures


@dataclass(frozen=True, slots=True)
class Interval:
    """Closed interval [lo, hi] with the precision it was computed at.

    Endpoints are exact rationals (dyadic whenever produced by
    `sqrt_interval` or outward rounding).  `bits` records the precision
    request that produced the enclosure; it is bookkeeping, not a
    constraint on the endpoints.
    """

    lo: Fraction
    hi: Fraction
    bits: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"inverted interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains(self, value) -> bool:
        return self.lo <= value <= self.hi


def round_dyadic(value: Fraction, frac_bits: int, mode: str = "nearest") -> Fraction:
    """Round an exact rational onto the grid of multiples of 2^-frac_bits."""
    shifted = value * (1 << frac_bits)
    if mode == "floor":
        m = shifted.numerator // shifted.denominator
    elif mode == "ceil":
        m = -((-shifted.numerator) // shifted.denominator)
    elif mode == "nearest":
        m = (2 * shifted.numerator + shifted.denominator) // (2 * shifted.denominator)
    else:
        raise ValueError(f"unknown rounding mode {mode!r}")
    return Fraction(m, 1 << frac_bits)


def sqrt_ints(p: int, q: int, bits: int) -> tuple[int, int, bool]:
    """Integer core of `sqrt_interval` for p/q >= 0 in lowest terms.

    Returns (s, t, exact) with s/2^t <= sqrt(p/q) < (s+1)/2^t, and
    exact true when s/2^t is sqrt(p/q) itself.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    # sqrt(p/q) > 2^h for h = floor((bitlen(p) - bitlen(q) - 1) / 2).
    h = (p.bit_length() - q.bit_length() - 1) // 2
    t = bits - 1 - h
    if t >= 0:
        num, den = p << (2 * t), q
    else:
        num, den = p, q << (-2 * t)
    n, rem = divmod(num, den)
    s = isqrt(n)
    return s, t, rem == 0 and s * s == n


def sqrt_interval(value: Fraction, bits: int) -> Interval:
    """Dyadic enclosure of sqrt(value) with relative width at most 2^(1-bits).

    The enclosure [s/2^t, (s+1)/2^t] has absolute width exactly 2^-t where
    t is chosen from the magnitude of `value` so that 2^-t never exceeds
    2^(1-bits) * sqrt(value).  Doubling `bits` doubles t, so enclosures
    shrink monotonically under refinement.  The integers s and t come
    from `sqrt_ints`, which callers holding integer numerators use
    directly.
    """
    if value < 0:
        raise ValueError("sqrt of negative value")
    s, t, exact = sqrt_ints(value.numerator, value.denominator, bits)
    lo = Fraction(s, 1 << t) if t >= 0 else Fraction(s << -t)
    if exact:
        return Interval(lo, lo, bits)
    hi = Fraction(s + 1, 1 << t) if t >= 0 else Fraction((s + 1) << -t)
    return Interval(lo, hi, bits)


# ---------------------------------------------------------------------------
# Circle-circle intersection
#
# With centers C1, C2 (Delta = C2 - C1, d2 = |Delta|^2) and squared radii
# R1, R2, the radical-axis foot is M = C1 + (t/d2) Delta for
# t = (d2 + R1 - R2)/2, and the intersection points are M +- sqrt(H) *
# perp(Delta) with perp(v) = (-v_y, v_x) and H = (R1*d2 - t^2)/d2^2.
# M and H are exact rationals; only sqrt(H) needs an enclosure.  On
# integer numerators, with the centers over one denominator den and the
# squared radii over den^2, M is over 2 * den * d2 and den cancels from
# H = (4 R1 d2 - (2t)^2) / (4 d2^2).


def crossing_ints(x1: int, y1: int, r1_sq: int, x2: int, y2: int,
                  r2_sq: int, den: int, bits: int):
    """The crossing of two circles left of the directed line C1->C2, on
    integer numerators.

    The centers are (x1, y1)/den and (x2, y2)/den and the squared radii
    r1_sq/den^2 and r2_sq/den^2, for a positive den.  Returns (xm, ym,
    hx, hy, f): the crossing lies in the box [xm - hx, xm + hx]/f x
    [ym - hy, ym + hy]/f, whose diameter is at most 2^-bits.  Its point
    rounded to the grid 2^-g has the numerators `nearest(xm, f, g)` and
    `nearest(ym, f, g)`.  At a tangency hx and hy are None and (xm, ym)/f
    is the touching point.  Raises NoIntersection when the circles are
    concentric, disjoint or nested.
    """
    dx, dy = x2 - x1, y2 - y1
    d2 = dx * dx + dy * dy
    if d2 == 0:
        raise NoIntersection("concentric circles")
    t2 = d2 + r1_sq - r2_sq
    h = 4 * r1_sq * d2 - t2 * t2
    if h < 0:
        # disjoint vs nested: d against r1 + r2 and |r1 - r2|, squared
        gap = d2 - r1_sq - r2_sq
        raise NoIntersection("disjoint circles"
                             if gap > 0 and gap * gap > 4 * r1_sq * r2_sq
                             else "nested circles")
    mx, my, f = 2 * d2 * x1 + t2 * dx, 2 * d2 * y1 + t2 * dy, 2 * den * d2
    if h == 0:
        return mx, my, None, None, f
    g = gcd(h, 4 * d2 * d2)
    hp, hq = h // g, 4 * d2 * d2 // g
    g = gcd(d2, den * den)
    p, q = d2 // g, den * den // g            # |Delta|^2 in lowest terms
    # The box is sqrt(H)'s enclosure [s, s+1]/2^t times |Delta|, of
    # diameter 2^-t |Delta|: aim the precision at 2^-bits in total.
    sb = bits + max(0, p.bit_length() - q.bit_length()) // 2 + 4
    while True:
        s, t, exact = sqrt_ints(hp, hq, sb)
        e = 2 * (bits - t)                    # 2^-2t p/q <= 2^-2bits
        if exact or (p << e <= q if e >= 0 else p <= q << -e):
            break
        sb *= 2
    # sqrt(H) is (2s + 1)/2^(t+1) give or take 1/2^(t+1), or exactly
    # 2s/2^(t+1) when the enclosure is exact
    mid, half, e = 2 * s + (not exact), int(not exact), t + 1
    if e >= 0:
        mx, my, f = mx << e, my << e, f << e
    else:
        mid, half = mid << -e, half << -e
    u = 2 * d2                                # Delta is over f / u
    return (mx - mid * u * dy, my + mid * u * dx,
            half * u * abs(dy), half * u * abs(dx), f)


def nearest(num: int, den: int, frac_bits: int) -> int:
    """Numerator over 2^frac_bits of `round_dyadic(num/den, frac_bits)`:
    the nearest grid point, ties rounded up, for a positive den."""
    return ((num << (frac_bits + 1)) + den) // (2 * den)
