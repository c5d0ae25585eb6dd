import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatree.errors import NoIntersection
from dilatree.exactgeom import (
    Interval, Orientation, Point, Segment, circle_intersection_box,
    circle_intersection_upper, orientation, pt,
    round_dyadic, segments_properly_cross, sqrt_interval, squared_distance,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)
points = st.builds(Point, rationals, rationals)


@given(points, points)
def test_squared_distance_symmetric_and_nonnegative(p, q):
    d = squared_distance(p, q)
    assert d == squared_distance(q, p)
    assert d >= 0
    assert (d == 0) == (p == q)


@given(points, points, points)
def test_orientation_antisymmetry(a, b, c):
    assert orientation(a, b, c) == -orientation(b, a, c)
    assert orientation(a, b, c) == orientation(b, c, a)


def test_orientation_examples():
    assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == Orientation.COUNTERCLOCKWISE
    assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == Orientation.CLOCKWISE
    assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == Orientation.COLLINEAR


# ---------------------------------------------------------------------------
# sqrt enclosures


def test_sqrt_interval_sqrt2_mantissa():
    # floor(sqrt(2) * 2^63), fixed reference value
    enc = sqrt_interval(Fraction(2), 64)
    assert enc.lo == Fraction(13043817825332782212, 1 << 63)
    assert enc.hi == Fraction(13043817825332782213, 1 << 63)


def test_sqrt_interval_exact_squares():
    enc = sqrt_interval(Fraction(49), 64)
    assert enc.contains(7)
    assert enc.width <= Fraction(1, 1 << 59)
    assert sqrt_interval(Fraction(0), 64).lo == 0
    assert sqrt_interval(Fraction(0), 64).hi == 0


def test_sqrt_interval_soundness_bulk():
    # containment and relative width over many random rationals, checked
    # purely with rational arithmetic (lo^2 <= v <= hi^2)
    rng = random.Random(20240817)
    for _ in range(10_000):
        v = Fraction(rng.randint(1, 10**12), rng.randint(1, 10**6))
        bits = rng.choice((16, 32, 64))
        enc = sqrt_interval(v, bits)
        assert enc.lo >= 0
        assert enc.lo * enc.lo <= v <= enc.hi * enc.hi
        assert enc.width <= Fraction(1, 1 << (bits - 1)) * enc.hi


@given(st.fractions(min_value=Fraction(1, 10**6), max_value=10**9,
                    max_denominator=10**6),
       st.integers(min_value=8, max_value=128),
       st.integers(min_value=1, max_value=64))
def test_sqrt_interval_refinement_nests(v, bits, extra):
    coarse = sqrt_interval(v, bits)
    fine = sqrt_interval(v, bits + extra)
    assert coarse.lo <= fine.lo and fine.hi <= coarse.hi
    if coarse.width == 0:
        # a perfect square is exact at every precision
        assert (fine.lo, fine.hi) == (coarse.lo, coarse.hi)
    else:
        assert fine.width < coarse.width


def test_distance_interval_345():
    enc = sqrt_interval(squared_distance(pt(0, 0), pt(3, 4)), 64)
    assert enc.lo == enc.hi == 5


# ---------------------------------------------------------------------------
# interval plumbing


def test_interval_validation_and_ops():
    with pytest.raises(ValueError):
        Interval(Fraction(1), Fraction(0), 64)
    a = Interval(Fraction(1), Fraction(2), 64)
    b = Interval(Fraction(10), Fraction(11), 32)
    s = a + b
    assert (s.lo, s.hi, s.bits) == (11, 13, 32)
    n = a.scale(Fraction(-3))
    assert (n.lo, n.hi) == (-6, -3)


def test_round_dyadic_modes():
    x = Fraction(1, 3)
    assert round_dyadic(x, 4, "floor") == Fraction(5, 16)
    assert round_dyadic(x, 4, "ceil") == Fraction(6, 16)
    assert round_dyadic(x, 4, "nearest") == Fraction(5, 16)
    assert round_dyadic(Fraction(3, 8), 2, "nearest") == Fraction(1, 2)
    with pytest.raises(ValueError):
        round_dyadic(x, 4, "sideways")


@given(st.fractions(min_value=-100, max_value=100, max_denominator=10**6),
       st.integers(min_value=1, max_value=80))
def test_round_dyadic_error_bound(x, fb):
    for mode, bound in (("floor", 1), ("ceil", 1), ("nearest", Fraction(1, 2))):
        r = round_dyadic(x, fb, mode)
        assert abs(r - x) <= Fraction(bound, 1 << fb)
        assert (r * (1 << fb)).denominator == 1


# ---------------------------------------------------------------------------
# segment crossing


def seg(ax, ay, bx, by):
    return Segment(pt(ax, ay), pt(bx, by))


def test_proper_crossing_cases():
    # interior X crossing
    assert segments_properly_cross(seg(0, 0, 2, 2), seg(0, 2, 2, 0))
    # shared endpoint only
    assert not segments_properly_cross(seg(0, 0, 1, 1), seg(1, 1, 2, 0))
    # T junction: endpoint of one interior to the other
    assert not segments_properly_cross(seg(0, 0, 2, 0), seg(1, 0, 1, 1))
    # disjoint
    assert not segments_properly_cross(seg(0, 0, 1, 0), seg(0, 1, 1, 1))
    # collinear with positive overlap
    assert segments_properly_cross(seg(0, 0, 2, 0), seg(1, 0, 3, 0))
    # collinear, touching at a single point
    assert not segments_properly_cross(seg(0, 0, 1, 0), seg(1, 0, 2, 0))
    # collinear containment
    assert segments_properly_cross(seg(0, 0, 3, 0), seg(1, 0, 2, 0))
    # vertical collinear overlap
    assert segments_properly_cross(seg(0, 0, 0, 2), seg(0, 1, 0, 3))


@given(points, points, points, points)
@settings(max_examples=300)
def test_crossing_symmetry(a, b, c, d):
    if a == b or c == d:
        return
    s, t = Segment(a, b), Segment(c, d)
    assert segments_properly_cross(s, t) == segments_properly_cross(t, s)
    assert segments_properly_cross(Segment(b, a), t) == segments_properly_cross(s, t)


# ---------------------------------------------------------------------------
# circle-circle intersection


def test_tangent_circles_flagged():
    res = circle_intersection_upper(pt(0, 0), Fraction(1), pt(2, 0),
                                    Fraction(1), 64)
    assert res.tangent
    assert res.point == pt(1, 0)
    assert res.residual_c1 == 0 and res.residual_c2 == 0


def test_no_intersection_classification():
    with pytest.raises(NoIntersection, match="disjoint"):
        circle_intersection_upper(pt(0, 0), Fraction(1), pt(10, 0),
                                  Fraction(1), 64)
    with pytest.raises(NoIntersection, match="nested"):
        circle_intersection_upper(pt(0, 0), Fraction(100), pt(1, 0),
                                  Fraction(1), 64)
    with pytest.raises(NoIntersection, match="concentric"):
        circle_intersection_upper(pt(0, 0), Fraction(1), pt(0, 0),
                                  Fraction(4), 64)


def test_unit_circles_symmetric_crossing():
    # centers (0,0) and (2,0) with r^2 = 2 meet at (1, +-1); left of the
    # eastward direction is (1, 1)
    res = circle_intersection_upper(pt(0, 0), Fraction(2), pt(2, 0),
                                    Fraction(2), 64)
    assert not res.tangent
    assert abs(res.point.x - 1) <= Fraction(1, 1 << 64)
    assert abs(res.point.y - 1) <= Fraction(1, 1 << 64)


def _residual_bound(p, c, r_sq, eps):
    # |p - c|^2 - r^2 = (d - r)(d + r); with |d - r| <= eps and d <= r + eps
    d2 = squared_distance(p, c)
    return abs(d2 - r_sq)


def test_hook_circle_pair_box_and_point():
    # the first hook-point circle pair of the smallest hardness gadget;
    # reference digits from an 80-digit independent solve
    c1, r1s = pt("57/10", "12/5"), Fraction(91, 10) ** 2
    c2, r2s = pt("29/2", 9), Fraction(4)
    ref_x = Fraction("12.62517766943351851914171856080267755752522583762422246699254126761833534738787")
    ref_y = Fraction("8.30355098620985409568982979771764204451182009528891549855539952196343165802828")
    bx, by = circle_intersection_box(c1, r1s, c2, r2s, 40)
    assert bx.contains(ref_x) and by.contains(ref_y)
    assert (bx.width ** 2 + by.width ** 2) <= Fraction(1, 1 << 80)

    res = circle_intersection_upper(c1, r1s, c2, r2s, 80)
    assert abs(res.point.x - ref_x) <= Fraction(1, 1 << 79)
    assert abs(res.point.y - ref_y) <= Fraction(1, 1 << 79)
    # dyadic grid
    assert (res.point.x * (1 << 82)).denominator == 1
    # exact residuals are small: |d^2 - r^2| ~ 2r * (point error)
    assert abs(res.residual_c1) < Fraction(20, 1 << 79)
    assert abs(res.residual_c2) < Fraction(5, 1 << 79)
    # strictly left of the directed center line
    assert orientation(c1, c2, res.point) == Orientation.COUNTERCLOCKWISE


def test_circle_crossing_random_soundness():
    rng = random.Random(7)
    for _ in range(50):
        c1 = pt(rng.randint(-20, 20), rng.randint(-20, 20))
        c2 = pt(rng.randint(-20, 20), rng.randint(-20, 20))
        if c1 == c2:
            continue
        d2 = squared_distance(c1, c2)
        # radii large enough to force two intersections
        r1s = d2 * Fraction(rng.randint(40, 90), 100)
        r2s = d2 * Fraction(rng.randint(40, 90), 100)
        res = circle_intersection_upper(c1, r1s, c2, r2s, 64)
        assert not res.tangent
        assert orientation(c1, c2, res.point) == Orientation.COUNTERCLOCKWISE
        # residuals consistent with a point within 2^-64 of each circle
        for c, rs, resid in ((c1, r1s, res.residual_c1), (c2, r2s, res.residual_c2)):
            assert _residual_bound(res.point, c, rs, 0) == abs(resid)
            # |resid| <= eps * (2r + eps) with eps = 2^-64, r^2 <= rs
            r_hi = sqrt_interval(rs, 32).hi
            eps = Fraction(1, 1 << 64)
            assert abs(resid) <= eps * (2 * r_hi + eps)
