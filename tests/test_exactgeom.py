import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatree.errors import NoIntersection
from dilatree import exactgeom
from dilatree.exactgeom import (
    Interval, Orientation, Point, Segment, crossing_ints, nearest,
    orientation, pt, round_dyadic, segments_properly_cross, sqrt_interval,
    squared_distance,
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
    assert a.width == 1
    assert a.contains(Fraction(3, 2)) and not a.contains(Fraction(5, 2))


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


small = st.tuples(st.integers(-3, 3), st.integers(-3, 3))


@given(small, small, small, small)
@settings(max_examples=300)
def test_integer_crossing_core_matches_reference(a, b, c, d):
    # a small grid makes collinear, touching and overlapping cases common
    if a == b or c == d:
        return
    expect = segments_properly_cross(Segment(pt(*a), pt(*b)),
                                     Segment(pt(*c), pt(*d)))
    assert exactgeom.segments_cross_ints(a, b, c, d) is expect


# ---------------------------------------------------------------------------
# circle-circle intersection


def _crossing_point(x1, y1, r1_sq, x2, y2, r2_sq, den, grid):
    """The two-point crossing left of C1->C2 rounded to the grid
    2^-grid."""
    xm, ym, hx, _, f = crossing_ints(x1, y1, r1_sq, x2, y2, r2_sq, den, grid)
    assert hx is not None
    return Point(Fraction(nearest(xm, f, grid), 1 << grid),
                 Fraction(nearest(ym, f, grid), 1 << grid))


def test_tangent_circles_flagged():
    # unit circles about (0, 0) and (2, 0) touch at (1, 0)
    xm, ym, hx, hy, f = crossing_ints(0, 0, 1, 2, 0, 1, 1, 64)
    assert (hx, hy) == (None, None)
    assert (Fraction(xm, f), Fraction(ym, f)) == (1, 0)


def test_unit_circles_symmetric_crossing():
    # centers (0,0) and (2,0) with r^2 = 2 meet at (1, +-1); left of the
    # eastward direction is (1, 1), and sqrt(H) = 1/2 is exact, so the
    # box is that point
    xm, ym, hx, hy, f = crossing_ints(0, 0, 2, 2, 0, 2, 1, 64)
    assert (Fraction(xm, f), Fraction(ym, f), hx, hy) == (1, 1, 0, 0)


def test_hook_circle_pair_box_and_point():
    # the first hook-point circle pair of the smallest hardness gadget,
    # centers (57/10, 12/5) and (29/2, 9) with r^2 = (91/10)^2 and 4,
    # over den = 10; reference digits from an 80-digit independent solve
    circles = (57, 24, 91 ** 2, 145, 90, 400, 10)
    c1, r1s = pt("57/10", "12/5"), Fraction(91, 10) ** 2
    c2, r2s = pt("29/2", 9), Fraction(4)
    ref_x = Fraction("12.62517766943351851914171856080267755752522583762422246699254126761833534738787")
    ref_y = Fraction("8.30355098620985409568982979771764204451182009528891549855539952196343165802828")
    xm, ym, hx, hy, f = crossing_ints(*circles, 40)
    assert Fraction(xm - hx, f) <= ref_x <= Fraction(xm + hx, f)
    assert Fraction(ym - hy, f) <= ref_y <= Fraction(ym + hy, f)
    assert Fraction(2 * hx, f) ** 2 + Fraction(2 * hy, f) ** 2 \
        <= Fraction(1, 1 << 80)

    p = _crossing_point(*circles, 82)
    assert abs(p.x - ref_x) <= Fraction(1, 1 << 79)
    assert abs(p.y - ref_y) <= Fraction(1, 1 << 79)
    # exact residuals are small: |d^2 - r^2| ~ 2r * (point error)
    assert abs(squared_distance(p, c1) - r1s) < Fraction(20, 1 << 79)
    assert abs(squared_distance(p, c2) - r2s) < Fraction(5, 1 << 79)
    # strictly left of the directed center line
    assert orientation(c1, c2, p) == Orientation.COUNTERCLOCKWISE


def test_circle_crossing_random_soundness():
    rng = random.Random(7)
    eps = Fraction(1, 1 << 64)
    for _ in range(50):
        x1, y1, x2, y2 = (rng.randint(-20, 20) for _ in range(4))
        if (x1, y1) == (x2, y2):
            continue
        d2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
        # radii large enough to force two intersections, over den = 10
        k1, k2 = rng.randint(40, 90), rng.randint(40, 90)
        p = _crossing_point(10 * x1, 10 * y1, d2 * k1, 10 * x2, 10 * y2,
                            d2 * k2, 10, 66)
        c1, c2 = pt(x1, y1), pt(x2, y2)
        assert orientation(c1, c2, p) == Orientation.COUNTERCLOCKWISE
        # a point within 2^-64 of each circle: |resid| <= eps (2r + eps)
        for c, k in ((c1, k1), (c2, k2)):
            rs = Fraction(d2 * k, 100)
            r_hi = sqrt_interval(rs, 32).hi
            assert abs(squared_distance(p, c) - rs) <= eps * (2 * r_hi + eps)


# ---------------------------------------------------------------------------
# the integer crossing core against the Fraction routine it replaced


def _reference_crossing(c1, r1_sq, c2, r2_sq, bits):
    """The Fraction crossing: the radical-axis foot M and H, then
    sqrt_interval(H) at doubling precision until the box is 2^-bits
    across.  Returns ("tangent", M) or ("box", x interval, y interval)."""
    dx = c2.x - c1.x
    dy = c2.y - c1.y
    d2 = dx * dx + dy * dy
    if d2 == 0:
        raise NoIntersection("concentric circles")
    t = (d2 + r1_sq - r2_sq) / 2
    m = Point(c1.x + t * dx / d2, c1.y + t * dy / d2)
    h = (r1_sq * d2 - t * t) / (d2 * d2)
    if h < 0:
        gap = d2 - r1_sq - r2_sq
        if gap > 0 and gap * gap > 4 * r1_sq * r2_sq:
            raise NoIntersection("disjoint circles")
        raise NoIntersection("nested circles")
    if h == 0:
        return "tangent", m
    sb = bits + max(0, d2.numerator.bit_length()
                    - d2.denominator.bit_length()) // 2 + 4
    target = Fraction(1, 1 << (2 * bits))
    while True:
        s = sqrt_interval(h, sb)
        wx = s.width * abs(dy)
        wy = s.width * abs(dx)
        if wx * wx + wy * wy <= target:
            break
        sb *= 2
    xs = (m.x - s.lo * dy, m.x - s.hi * dy)
    ys = (m.y + s.lo * dx, m.y + s.hi * dx)
    return ("box", Interval(min(xs), max(xs), bits),
            Interval(min(ys), max(ys), bits))


def _core_matches_reference(x1, y1, r1_sq, x2, y2, r2_sq, den, bits):
    """Assert that crossing_ints agrees with the reference on the same
    circles, and return the reference's kind of answer."""
    c1 = Point(Fraction(x1, den), Fraction(y1, den))
    c2 = Point(Fraction(x2, den), Fraction(y2, den))
    args = (c1, Fraction(r1_sq, den * den), c2, Fraction(r2_sq, den * den),
            bits)
    try:
        ref = _reference_crossing(*args)
    except NoIntersection as exc:
        with pytest.raises(NoIntersection) as got:
            crossing_ints(x1, y1, r1_sq, x2, y2, r2_sq, den, bits)
        assert str(got.value) == str(exc)
        return str(exc)
    xm, ym, hx, hy, f = crossing_ints(x1, y1, r1_sq, x2, y2, r2_sq, den, bits)
    assert f > 0
    if ref[0] == "tangent":
        assert hx is None and hy is None
        assert Point(Fraction(xm, f), Fraction(ym, f)) == ref[1]
        return "tangent"
    _, bx, by = ref
    assert (Fraction(xm - hx, f), Fraction(xm + hx, f)) == (bx.lo, bx.hi)
    assert (Fraction(ym - hy, f), Fraction(ym + hy, f)) == (by.lo, by.hi)
    # the box centre rounded onto the grid
    for num, iv in ((xm, bx), (ym, by)):
        assert Fraction(nearest(num, f, bits), 1 << bits) \
            == round_dyadic((iv.lo + iv.hi) / 2, bits)
    return "box"


coords = st.integers(-60, 60)
dens = st.sampled_from([1, 2, 3, 10, 1800, 1 << 20])
precisions = st.integers(1, 90)


@given(coords, coords, st.integers(0, 8000), coords, coords,
       st.integers(0, 8000), dens, precisions)
@settings(max_examples=400, deadline=None)
def test_crossing_core_matches_fraction_reference(x1, y1, r1, x2, y2, r2,
                                                  den, bits):
    _core_matches_reference(x1, y1, r1, x2, y2, r2, den, bits)


@given(coords, coords, coords, coords, coords, coords, dens, precisions)
@settings(max_examples=200, deadline=None)
def test_crossing_core_on_circles_through_a_rational_point(px, py, x1, y1,
                                                           x2, y2, den,
                                                           bits):
    # both circles pass through (px, py), so sqrt(H) is rational and its
    # enclosure exact, or the circles touch there
    r1 = (px - x1) ** 2 + (py - y1) ** 2
    r2 = (px - x2) ** 2 + (py - y2) ** 2
    kind = _core_matches_reference(x1, y1, r1, x2, y2, r2, den, bits)
    if (x1, y1) != (x2, y2) and (x1, y1) != (px, py) \
            and (x2, y2) != (px, py):
        collinear = (x2 - x1) * (py - y1) == (y2 - y1) * (px - x1)
        assert kind == ("tangent" if collinear else "box")


@given(coords, coords, st.integers(-9, 9), st.integers(-9, 9),
       st.integers(-5, 5).filter(bool), st.integers(-5, 5).filter(bool),
       dens, precisions)
@settings(max_examples=200, deadline=None)
def test_crossing_core_on_touching_circles(px, py, vx, vy, a, b, den, bits):
    # centers P + a v and P + b v with radii |a v| and |b v| touch at P
    if (vx, vy) == (0, 0) or a == b:
        return
    v2 = vx * vx + vy * vy
    kind = _core_matches_reference(px + a * vx, py + a * vy, a * a * v2,
                                   px + b * vx, py + b * vy, b * b * v2,
                                   den, bits)
    assert kind == "tangent"


@given(st.integers(1, 40), st.integers(20, 60), st.integers(1, 4),
       st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_crossing_core_on_close_centers_and_large_radii(gap, big, bits,
                                                       drift):
    # centers a few 2^-20 apart with radii near 2^(big-20): sqrt(H) is far
    # above 2^sb, so sqrt_ints returns a negative exponent t
    r = 1 << big
    kind = _core_matches_reference(0, 0, r * r, gap, drift, r * r + drift,
                                   1 << 20, bits)
    assert kind == "box"


def test_crossing_core_reaches_a_negative_sqrt_exponent(monkeypatch):
    exps, real = [], exactgeom.sqrt_ints

    def spy(p, q, bits):
        out = real(p, q, bits)
        exps.append(out[1])
        return out

    monkeypatch.setattr(exactgeom, "sqrt_ints", spy)
    r = 1 << 40
    _core_matches_reference(0, 0, r * r, 1, 0, r * r, 1 << 20, 1)
    assert min(exps) < 0


def test_crossing_core_raises_every_no_intersection_message():
    cases = {
        "concentric circles": (0, 0, 1, 0, 0, 4),
        "disjoint circles": (0, 0, 1, 10, 0, 1),
        "nested circles": (0, 0, 100, 1, 0, 1),
    }
    for message, circles in cases.items():
        assert _core_matches_reference(*circles, 1, 64) == message
        assert _core_matches_reference(*circles, 7, 3) == message
