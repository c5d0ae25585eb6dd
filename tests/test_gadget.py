import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dilatree import dilation, gadget
from dilatree.dilation import (
    PointSet, Tree, Verdict, compare_to_threshold, critical_edges,
    pair_dilation, tree_has_crossing,
)
from dilatree.errors import PrecisionInsufficient, SumTooLarge
from dilatree.exactgeom import (Orientation, Point, orientation,
                                sqrt_interval, squared_distance)
from dilatree.gadget import (
    IntegerInstance, LemmaCheck, PartitionInstance, PartitionSolution,
    build_gadget, decide_partition, integerize, partition_oracle,
    rounding_bits, standard_tree, symbolic_pair_ratio, symbolic_path_length,
    verify_gadget,
)
from dilatree.radical import SqrtSum

from conftest import graph_exceeds

HALF = Fraction(3, 2)


def brute_force_split(alphas_dot):
    n = len(alphas_dot)
    total = sum(alphas_dot)
    if total % 2:
        return None
    for mask in range(1 << n):
        if 2 * sum(alphas_dot[i] for i in range(n) if mask >> i & 1) == total:
            return mask
    return None


# ---------------------------------------------------------------------------
# instance and weight handling


def test_instance_validation():
    with pytest.raises(ValueError):
        PartitionInstance(())
    with pytest.raises(ValueError):
        PartitionInstance((1, 0))
    with pytest.raises(ValueError):
        PartitionInstance((-2,))
    with pytest.raises(ValueError):
        PartitionInstance((1, Fraction(1, 2)))
    inst = PartitionInstance([3, 1, 2])
    assert inst.n == 3 and inst.sigma_dot == 6
    assert isinstance(inst.alphas_dot, tuple)


def test_solution_halves_must_be_disjoint():
    with pytest.raises(ValueError):
        PartitionSolution({1, 2}, {2, 3})
    sol = PartitionSolution({1}, {2})
    assert sol.consistent_with((1, 1))
    assert not sol.consistent_with((1, 2))
    assert not sol.consistent_with((1, 1, 1))


def test_rounding_bits_is_minimal():
    for alphas in [(1,), (1, 1), (2, 3, 5), (7, 7), (1,) * 10, (40, 2, 2)]:
        inst = PartitionInstance(alphas)
        k = rounding_bits(inst)
        m = inst.n * inst.sigma_dot
        assert (1 << (k - 4 * inst.n - 22)) > m
        assert (1 << (k - 1 - 4 * inst.n - 22)) <= m
    assert rounding_bits(PartitionInstance((1,))) == 27


# ---------------------------------------------------------------------------
# construction


def test_small_instance_exact_coordinates():
    g = build_gadget(PartitionInstance((1,)))
    pts = g.points
    assert len(pts) == 16
    assert pts[g.a(1)] == Point(Fraction(5, 2), Fraction(0))
    assert pts[g.a(2)] == Point(Fraction(29, 2), Fraction(9))
    assert pts[g.b(1)] == Point(Fraction(33, 10), Fraction(3, 5))
    assert pts[g.c(1)] == Point(Fraction(57, 10), Fraction(12, 5))
    assert pts[g.q1] == Point(Fraction(0), Fraction(0))
    assert pts[g.q2] == Point(Fraction(0), Fraction(-21, 2))
    d1 = pts[g.d(1)]
    assert abs(d1.x - Fraction(126252, 10000)) < Fraction(1, 1000)
    assert abs(d1.y - Fraction(83036, 10000)) < Fraction(1, 1000)
    key = (g.q2, g.p2)
    assert g.rational_lengths[key] == Fraction(233, 10)
    assert g.alphas == (Fraction(1, 10),)
    assert g.alphas_dot == (1,) and g.sigma_dot == 1


def test_layout_indexing_and_labels():
    g = build_gadget(PartitionInstance((1, 1, 2)))
    n = g.n
    assert len(g.points) == 8 * n + 8
    labels = g.points.labels
    assert labels[g.q1] == "q1" and labels[g.q2] == "q2"
    for i in range(1, n + 2):
        assert labels[g.a(i)] == f"a{i}"
        assert labels[g.mirror(g.a(i))] == f"a{i}'"
    for i in range(1, n + 1):
        assert labels[g.b(i)] == f"b{i}"
        assert labels[g.c(i)] == f"c{i}"
        assert labels[g.d(i)] == f"d{i}"
    assert labels[g.p1] == "p1" and labels[g.p2] == "p2"
    assert labels[g.mirror(g.p2)] == "p2'"
    assert len(set(labels)) == len(labels)
    for j in range(8 * n + 8):
        assert g.mirror(g.mirror(j)) == j
    with pytest.raises(IndexError):
        g.a(0)
    with pytest.raises(IndexError):
        g.d(n + 1)
    with pytest.raises(IndexError):
        g.mirror(8 * n + 8)


def test_mirror_points_reflect_exactly():
    g = build_gadget(PartitionInstance((2, 1)))
    pts = g.points
    for j in range(2, 4 * g.n + 5):
        m = pts[g.mirror(j)]
        assert m.x == -pts[j].x and m.y == pts[j].y
    assert pts[g.q1].x == 0 and pts[g.q2].x == 0


def test_defined_lengths_are_realized_distances():
    g = build_gadget(PartitionInstance((1, 3)))
    d_range = range(g.d(1), g.d(g.n) + 1)
    mirror_d = {g.mirror(j) for j in d_range}
    for (u, v), length in g.rational_lengths.items():
        if set((u, v)) & (set(d_range) | mirror_d):
            continue
        assert g.points.distance_sq(u, v) == length * length


def test_choice_points_sit_on_their_circles():
    g = build_gadget(PartitionInstance((1, 2, 4)))
    budget = Fraction(1, 1 << g.d_bits)
    for i in range(1, g.n + 1):
        # the radii are the ideal lengths of the edges c_i d_i, d_i a_{i+1}
        for center in (g.c(i), g.a(i + 1)):
            key = tuple(sorted((center, g.d(i))))
            assert abs(g.points.distance_sq(*key)
                       - g.rational_lengths[key] ** 2) <= budget


def test_choice_points_between_line_and_anchor():
    g = build_gadget(PartitionInstance((1, 1, 1, 1)))
    a1 = g.points[g.a(1)]
    an1 = g.points[g.a(g.n + 1)]
    for i in range(1, g.n + 1):
        dpt = g.points[g.d(i)]
        assert orientation(a1, an1, dpt) is Orientation.COUNTERCLOCKWISE
        assert dpt.y < g.points[g.a(i + 1)].y


def test_custom_precision_and_floor():
    inst = PartitionInstance((1, 1))
    g = build_gadget(inst, d_bits=48)
    assert g.d_bits == 48
    with pytest.raises(ValueError):
        build_gadget(inst, d_bits=31)


def _dstar(g, i):
    """The foot of the i-th choice point on the slope-3/4 line:
    c_i + (36, 27) * 4^(i-1) / 5."""
    c, step = g.points[g.c(i)], Fraction(9 * (1 << (2 * (i - 1))), 5)
    return Point(c.x + 4 * step, c.y + 3 * step)


def test_dstar_is_projection_foot():
    g = build_gadget(PartitionInstance((3, 2, 1)))
    a1 = g.points[g.a(1)]
    an1 = g.points[g.a(g.n + 1)]
    for i in range(1, g.n + 1):
        foot = _dstar(g, i)
        assert orientation(a1, an1, foot) is Orientation.COLLINEAR
        assert squared_distance(foot, g.points[g.a(i + 1)]) \
            == Fraction(4 * (1 << (2 * (i - 1))) ** 2)


def test_dstar_gap_stays_under_bound():
    g = build_gadget(PartitionInstance((1, 1)))
    for i in range(1, g.n + 1):
        gap = sqrt_interval(squared_distance(g.points[g.d(i)], _dstar(g, i)),
                            96)
        assert gap.hi ** 2 < Fraction(1 << (2 * i), 11)
        assert gap.lo > 0


# ---------------------------------------------------------------------------
# audit


@pytest.mark.parametrize("alphas", [(1,), (1, 3), (2, 3, 5)])
def test_audit_passes_on_built_instances(alphas):
    g = build_gadget(PartitionInstance(alphas))
    report = verify_gadget(g)
    assert report.passed
    assert len(report.checks) == 6
    assert len({c.name for c in report.checks}) == 6
    assert report.failures() == []


def test_audit_flags_displaced_choice_point():
    g = build_gadget(PartitionInstance((1,)))
    pts = list(g.points.points)
    pts[g.d(1)] = _dstar(g, 1)               # drop it onto the base line
    bad = dataclasses.replace(g, points=PointSet(pts, labels=g.points.labels))
    report = verify_gadget(bad)
    assert not report.passed
    names = {c.name for c in report.failures()}
    assert "choice-point placement" in names


def test_placement_check_boundary():
    # d_1 and its mirror moved along x by the tolerance 2^-(d_bits-4) stay
    # on their circles; moved by twice that, they are off
    g = build_gadget(PartitionInstance((1, 2)), d_bits=41)

    def audit(shift):
        xy = list(g.points.numerators)
        step = g.points.den >> shift
        for j, sign in ((g.d(1), 1), (g.mirror(g.d(1)), -1)):
            xy[j] = (xy[j][0] + sign * step, xy[j][1])
        moved = dataclasses.replace(g, points=PointSet.from_ints(
            xy, g.points.den, g.points.labels))
        return {c.name: c for c in verify_gadget(moved).checks}[
            "choice-point placement"]

    assert audit(g.d_bits - 4).passed
    check = audit(g.d_bits - 5)
    assert not check.passed
    assert check.detail == "point d1 sits off its defining circle"


def test_forced_edge_scan_matches_construction():
    g = build_gadget(PartitionInstance((2, 1, 1)))
    n = g.n
    expected = set()
    base = [(g.q1, g.a(1)), (g.a(n + 1), g.p1), (g.p1, g.p2)]
    base += [(g.a(i), g.b(i)) for i in range(1, n + 1)]
    base += [(g.b(i), g.c(i)) for i in range(1, n + 1)]
    base += [(g.d(i), g.a(i + 1)) for i in range(1, n + 1)]
    for u, v in base:
        expected.add(tuple(sorted((u, v))))
        expected.add(tuple(sorted((g.mirror(u), g.mirror(v)))))
    got = critical_edges(g.points, 8, 5)
    assert got == frozenset(expected)
    assert len(got) == 6 * n + 6


def test_forced_edge_scan_encloses_few_pairs(monkeypatch):
    # squared-distance tests, the pair filter and the detour window settle
    # every triple of the (1, 2, 4) gadget: none of its 496 pairs is
    # ever enclosed
    g = build_gadget(PartitionInstance((1, 2, 4)))
    calls = []
    dist_ints = PointSet.dist_ints

    def counted(self, *args):
        calls.append(args)
        return dist_ints(self, *args)

    monkeypatch.setattr(PointSet, "dist_ints", counted)
    assert len(critical_edges(g.points, 8, 5)) == 6 * g.n + 6
    assert len(calls) == 0
    assert len(calls) < g.points.n * (g.points.n - 1) // 4


def test_audit_builds_no_exact_length(monkeypatch):
    # every inequality of the (3, 5, 2, 4, 6) audit settles on integers
    g = build_gadget(PartitionInstance((3, 5, 2, 4, 6)))
    calls = []
    exact_dist = PointSet.exact_dist

    def counted(self, *args):
        calls.append(args)
        return exact_dist(self, *args)

    monkeypatch.setattr(PointSet, "exact_dist", counted)
    assert verify_gadget(g).passed
    assert calls == []


def alternation_exact(g):
    """`_check_alternation` with every inequality settled by an exact
    `SqrtSum` sign, with no integer screen."""
    name = "alternation obstruction"
    dist = g.points.exact_dist
    for i in range(1, g.n + 1):
        db, cd = dist(g.d(i), g.b(i)), dist(g.c(i), g.d(i))
        ad = dist(g.a(i + 1), g.d(i))
        s = SqrtSum.rational(gadget._four(i - 1))
        if (db.scale(5) + s.scale(15) - cd.scale(8)).sign() <= 0:
            return LemmaCheck(name, False, f"detour via b{i} is short enough")
        if (cd.scale(8) - s.scale(55) - ad.scale(5)).sign() <= 0:
            return LemmaCheck(name, False, f"choice edge {i} became forced")
    return LemmaCheck(name, True, "every index keeps exactly two choices")


def _choice_point_moved(g, i, t):
    """g with d_i moved to c_i + t (d_i - c_i), its mirror left alone."""
    pts = list(g.points.points)
    c, d = pts[g.c(i)], pts[g.d(i)]
    pts[g.d(i)] = Point(c.x + t * (d.x - c.x), c.y + t * (d.y - c.y))
    return dataclasses.replace(g, points=PointSet(pts,
                                                  labels=g.points.labels))


@pytest.mark.parametrize("alphas, i, t, detail", [
    ((1, 2), 2, 4, "detour via b2 is short enough"),
    ((2, 3, 5), 1, 4, "detour via b1 is short enough"),
    ((1, 2), 2, Fraction(1, 2), "choice edge 2 became forced"),
    ((2, 3, 5), 3, Fraction(3, 4), "choice edge 3 became forced"),
])
def test_alternation_flags_a_displaced_choice_point(alphas, i, t, detail):
    # d_i moved far out makes the detour via b_i short; moved toward c_i
    # it makes the choice edge c_i d_i forced
    bad = _choice_point_moved(build_gadget(PartitionInstance(alphas)), i, t)
    check = gadget._check_alternation(bad)
    assert check == alternation_exact(bad)
    assert (check.passed, check.detail) == (False, detail)


@pytest.mark.parametrize("fails, passes", [(Fraction(3, 4), 1), (4, 1)])
def test_alternation_screen_falls_back_near_its_boundary(fails, passes,
                                                         monkeypatch):
    # d_2 moved to c_2 + t (d_2 - c_2): the choice edge turns forced
    # between t = 3/4 and 1, and the detour via b_2 short between 1 and
    # 4.  Two moves 2^-78 or less apart straddle each turn, each too close
    # to it for the 64-bit screen.
    g = build_gadget(PartitionInstance((1, 2)))
    for _ in range(80):
        mid = Fraction(fails + passes, 2)
        if alternation_exact(_choice_point_moved(g, 2, mid)).passed:
            passes = mid
        else:
            fails = mid
    calls = []
    exact_dist = PointSet.exact_dist

    def counted(self, *args):
        calls.append(args)
        return exact_dist(self, *args)

    for t, passed in ((fails, False), (passes, True)):
        moved = _choice_point_moved(g, 2, t)
        want = alternation_exact(moved)
        calls.clear()
        monkeypatch.setattr(PointSet, "exact_dist", counted)
        check = gadget._check_alternation(moved)
        monkeypatch.undo()
        assert check == want
        assert check.passed is passed
        assert (g.c(2), g.d(2)) in calls


# ---------------------------------------------------------------------------
# tree family


def test_standard_tree_shape():
    g = build_gadget(PartitionInstance((1, 1)))
    t = standard_tree(g, {1})
    assert len(t.edges) == 8 * g.n + 7
    assert t.has_edge(g.q1, g.q2)
    assert t.has_edge(g.c(1), g.d(1))
    assert t.has_edge(g.c(2), g.a(3))
    assert t.has_edge(g.mirror(g.c(1)), g.mirror(g.a(2)))
    assert t.has_edge(g.mirror(g.c(2)), g.mirror(g.d(2)))
    assert not tree_has_crossing(g.points, t)
    for u, v in critical_edges(g.points, 8, 5):
        assert t.has_edge(u, v)
    with pytest.raises(ValueError):
        standard_tree(g, {3})


def test_balanced_split_reaches_threshold_exactly():
    cases = [((1, 1), {1}), ((2, 3, 5), {1, 2}), ((1, 2, 4, 1), {3})]
    for alphas, half in cases:
        g = build_gadget(PartitionInstance(alphas))
        t = standard_tree(g, half)
        for far in (g.p2, g.mirror(g.p2)):
            assert symbolic_pair_ratio(g, t, g.q2, far) == HALF


def test_unbalanced_split_exceeds_threshold():
    g = build_gadget(PartitionInstance((1, 1)))
    for half in (set(), {1, 2}):
        t = standard_tree(g, half)
        ratios = [symbolic_pair_ratio(g, t, g.q2, far)
                  for far in (g.p2, g.mirror(g.p2))]
        assert max(ratios) > HALF
        assert min(ratios) < HALF


def test_symbolic_lengths_follow_tree_paths():
    g = build_gadget(PartitionInstance((1,)))
    t = standard_tree(g, set())
    # q2 .. p2 runs through the whole right chain
    assert symbolic_path_length(g, t, g.q2, g.p2) == Fraction(349, 10)
    assert symbolic_path_length(g, t, g.q2, g.p2) \
        == Fraction(10 * 4 - Fraction(102, 20))
    # hanging the far point anywhere else leaves the ledger
    rewired = Tree(16, [e for e in t.edges if e != (g.q1, g.q2)]
                   + [(g.q2, g.b(1))])
    with pytest.raises(ValueError):
        symbolic_path_length(g, rewired, g.q2, g.p2)
    with pytest.raises(ValueError):
        symbolic_pair_ratio(g, t, g.b(1), g.a(2))  # no defined direct length


# ---------------------------------------------------------------------------
# integer rescaling


def test_integerize_small_instance():
    g = build_gadget(PartitionInstance((1,)))
    ii = integerize(g)
    assert ii.k == 27
    assert ii.P == 3073 and ii.Q == 2048
    assert Fraction(ii.P, ii.Q) == HALF + Fraction(1, 2) * Fraction(1, 1 << 10)
    assert ii.alphas_dot == (1,) and ii.n == 1 and ii.sigma_dot == 1
    scale = 1800 << 27
    assert ii.points[ii.a(1)] == Point(Fraction(4500 << 27), Fraction(0))
    assert ii.points[ii.q2].y == Fraction(-21, 2) * scale
    limit = 2 * ii.n + ii.k + 15
    for p in ii.points.points:
        assert p.x.denominator == 1 and p.y.denominator == 1
        assert abs(p.x.numerator).bit_length() <= limit
        assert abs(p.y.numerator).bit_length() <= limit


def test_integerize_threshold_shape():
    g = build_gadget(PartitionInstance((1, 1)))
    ii = integerize(g)
    assert ii.k == 33
    assert Fraction(ii.P, ii.Q) == HALF + Fraction(1, 16384)


def test_integerize_rounding_keeps_points_near_circles():
    g = build_gadget(PartitionInstance((2, 1)))
    ii = integerize(g)
    scale = 1800 << ii.k
    for i in range(1, g.n + 1):
        ideal = g.points[g.d(i)]
        got = ii.points[ii.d(i)]
        assert abs(got.x / scale - ideal.x) <= Fraction(1, 1 << (ii.k + 1))
        assert abs(got.y / scale - ideal.y) <= Fraction(1, 1 << (ii.k + 1))


def test_integerize_demands_enough_stored_bits():
    inst = PartitionInstance((1, 1))
    coarse = build_gadget(inst, d_bits=32)
    with pytest.raises(PrecisionInsufficient):
        integerize(coarse)                  # needs k = 33
    with pytest.raises(ValueError):
        integerize(coarse, k=32)            # k itself too small for the gap
    fine = build_gadget(inst, d_bits=64)
    for k in (5, -1):                       # below 4n + 22, before any shift
        with pytest.raises(ValueError, match="too small for the gap"):
            integerize(fine, k=k)
    ii = integerize(fine, k=40)
    assert ii.k == 40


def test_integer_instance_validation():
    g = build_gadget(PartitionInstance((1,)))
    ii = integerize(g)
    assert [f.name for f in dataclasses.fields(ii)] \
        == ["alphas_dot", "k", "points"]
    # the threshold follows from the weights, so it cannot disagree
    assert IntegerInstance((7,), 40, ii.points).P == 3 * 2 * 1024 * 7 // 2 + 1
    with pytest.raises(ValueError, match="positive integers"):
        IntegerInstance((0,), ii.k, ii.points)
    with pytest.raises(ValueError, match="too small for the gap"):
        IntegerInstance((1,), ii.k - 1, ii.points)
    with pytest.raises(ValueError, match="8n\\+8"):
        IntegerInstance((1, 1), 40, ii.points)
    pts = list(ii.points.points)
    pts[ii.d(1)] = Point(pts[ii.d(1)].x + Fraction(1, 2), pts[ii.d(1)].y)
    with pytest.raises(ValueError, match="integers"):
        IntegerInstance((1,), ii.k, PointSet(pts))
    pts[ii.d(1)] = Point(Fraction(1 << (2 + ii.k + 15)), pts[ii.d(1)].y)
    with pytest.raises(ValueError, match="bit budget"):
        IntegerInstance((1,), ii.k, PointSet(pts))


# ---------------------------------------------------------------------------
# deciding


def test_decide_finds_balanced_split():
    inst = PartitionInstance((1, 1))
    g = build_gadget(inst)
    sol, tree = decide_partition(g)
    assert sol.consistent_with(inst.alphas_dot)
    for i in sol.A:
        assert tree.has_edge(g.c(i), g.d(i))
    for i in sol.A_prime:
        assert tree.has_edge(g.mirror(g.c(i)), g.mirror(g.d(i)))
    p, q = 3 * 4 ** 6 * 2 + 1, 2 * 4 ** 6 * 2
    assert compare_to_threshold(g.points, tree, p, q) is Verdict.AT_MOST


def test_decide_rejects_unsplittable_weights():
    assert decide_partition(build_gadget(PartitionInstance((1, 1, 1)))) is None
    assert decide_partition(build_gadget(PartitionInstance((1,)))) is None


@pytest.mark.parametrize("alphas", [(2, 3, 5), (1, 2, 4), (1, 1, 2, 8),
                                    (1, 1, 1, 2), (1, 1, 1, 1, 3),
                                    (1, 1, 1, 1, 1, 1, 2, 10)])
def test_decide_agrees_with_oracle(alphas):
    inst = PartitionInstance(alphas)
    expect = partition_oracle(inst)
    got = decide_partition(build_gadget(inst))
    if expect is None:
        assert got is None
    else:
        sol, _ = got
        assert sol.consistent_with(inst.alphas_dot)


@pytest.mark.parametrize("alphas", [(1, 1), (1, 1, 1), (2, 3, 5),
                                    (1, 1, 1, 1, 1, 1, 2, 10)])
def test_decide_on_integer_instance(alphas):
    inst = PartitionInstance(alphas)
    ii = integerize(build_gadget(inst))
    got = decide_partition(ii)
    if partition_oracle(inst) is None:
        assert got is None
    else:
        sol, tree = got
        assert sol.consistent_with(inst.alphas_dot)
        assert compare_to_threshold(ii.points, tree, ii.P, ii.Q) \
            is Verdict.AT_MOST


# decide_partition's answers as recorded from the mask-by-mask searches
# that preceded the slot search; the returned tree depends only on n and
# the split, keyed here by n and the sorted first half
_SPLIT_TREES = {
    (2, (2,)): (
        (0, 1), (0, 2), (0, 13), (2, 5), (3, 6), (3, 7), (3, 9), (4, 10),
        (4, 11), (5, 7), (6, 8), (8, 10), (11, 12), (13, 16), (14, 17),
        (14, 20), (15, 19), (15, 21), (15, 22), (16, 18), (17, 19), (18, 20),
        (22, 23),
    ),
    (3, (3,)): (
        (0, 1), (0, 2), (0, 17), (2, 6), (3, 7), (3, 9), (3, 12), (4, 8),
        (4, 10), (4, 13), (5, 14), (5, 15), (6, 9), (7, 10), (8, 11), (11, 14),
        (15, 16), (17, 21), (18, 22), (18, 27), (19, 23), (19, 28), (20, 26),
        (20, 29), (20, 30), (21, 24), (22, 25), (23, 26), (24, 27), (25, 28),
        (30, 31),
    ),
    (4, (1, 4)): (
        (0, 1), (0, 2), (0, 21), (2, 7), (3, 8), (3, 15), (4, 9), (4, 12),
        (4, 16), (5, 10), (5, 13), (5, 17), (6, 18), (6, 19), (7, 11), (8, 12),
        (9, 13), (10, 14), (11, 15), (14, 18), (19, 20), (21, 26), (22, 27),
        (22, 30), (22, 34), (23, 28), (23, 35), (24, 29), (24, 36), (25, 33),
        (25, 37), (25, 38), (26, 30), (27, 31), (28, 32), (29, 33), (31, 35),
        (32, 36), (38, 39),
    ),
    (4, (3, 4)): (
        (0, 1), (0, 2), (0, 21), (2, 7), (3, 8), (3, 11), (3, 15), (4, 9),
        (4, 12), (4, 16), (5, 10), (5, 17), (6, 18), (6, 19), (7, 11), (8, 12),
        (9, 13), (10, 14), (13, 17), (14, 18), (19, 20), (21, 26), (22, 27),
        (22, 34), (23, 28), (23, 35), (24, 29), (24, 32), (24, 36), (25, 33),
        (25, 37), (25, 38), (26, 30), (27, 31), (28, 32), (29, 33), (30, 34),
        (31, 35), (38, 39),
    ),
    (6, (5, 6)): (
        (0, 1), (0, 2), (0, 29), (2, 9), (3, 10), (3, 15), (3, 21), (4, 11),
        (4, 16), (4, 22), (5, 12), (5, 17), (5, 23), (6, 13), (6, 18), (6, 24),
        (7, 14), (7, 25), (8, 26), (8, 27), (9, 15), (10, 16), (11, 17),
        (12, 18), (13, 19), (14, 20), (19, 25), (20, 26), (27, 28), (29, 36),
        (30, 37), (30, 48), (31, 38), (31, 49), (32, 39), (32, 50), (33, 40),
        (33, 51), (34, 41), (34, 46), (34, 52), (35, 47), (35, 53), (35, 54),
        (36, 42), (37, 43), (38, 44), (39, 45), (40, 46), (41, 47), (42, 48),
        (43, 49), (44, 50), (45, 51), (54, 55),
    ),
}


@pytest.mark.parametrize("alphas, split", [
    ((1,), None), ((3,), None), ((1, 1), ((2,), (1,))), ((2, 2), ((2,), (1,))),
    ((1, 2), None), ((1, 1, 1), None), ((1, 1, 2), ((3,), (1, 2))),
    ((2, 3, 5), ((3,), (1, 2))), ((1, 2, 4), None), ((1, 1, 1, 2), None),
    ((1, 2, 3, 4), ((1, 4), (2, 3))), ((1, 1, 2, 8), None),
    ((2, 1, 1, 2), ((3, 4), (1, 2))), ((1, 1, 2, 2), ((1, 4), (2, 3))),
    ((1, 1, 1, 1, 2, 2), ((5, 6), (1, 2, 3, 4))), ((1, 1, 1, 1, 1, 1, 5), None),
])
def test_decide_pinned_answers(alphas, split):
    g = build_gadget(PartitionInstance(alphas))
    for inst in (g, integerize(g)):
        got = decide_partition(inst)
        if split is None:
            assert got is None
            continue
        sol, tree = got
        assert (tuple(sorted(sol.A)), tuple(sorted(sol.A_prime))) == split
        assert tree.edges == _SPLIT_TREES[len(alphas), split[0]]


@pytest.mark.parametrize("alphas, certified", [
    ((1,), 0), ((1, 2), 0), ((1, 1, 1), 0), ((1, 2, 4), 0), ((1, 1, 1, 2), 0),
    ((1, 1), 1), ((2, 3, 5), 1),
])
def test_decide_certifies_only_unscreened_trees(alphas, certified,
                                                monkeypatch):
    # the slot cut runs at every node of the slot search, and at a leaf
    # its graph is the tree itself, so compare_to_threshold runs only
    # on the tree it cannot reject
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return compare_to_threshold(*args, **kwargs)

    monkeypatch.setattr(gadget, "compare_to_threshold", counted)
    g = build_gadget(PartitionInstance(alphas))
    for inst in (g, integerize(g)):
        calls.clear()
        got = decide_partition(inst)
        assert (got is not None) == bool(certified)
        assert len(calls) == certified


def test_decide_slot_search_work_pin(monkeypatch):
    # one cut per node of the slot search; the 4^7 family trees of each
    # attachment would take 16,384 cuts one by one.  The 63 roots share
    # one Dijkstra from q1, every other node repairs its parent's sums,
    # and the near pair of q2 never needs a second Dijkstra: 585 cuts, 1
    # Dijkstra, and 3,376 vertices re-settled by 522 repairs
    cuts, dijkstras, repaired = [], [], []

    def counted_cut(*args):
        cuts.append(args)
        return cut(*args)

    def counted_sums(*args):
        dijkstras.append(args)
        return sums(*args)

    def counted_repair(*args):
        got = repair(*args)
        repaired.append(len(got[1]))
        return got

    cut, sums, repair = (gadget._slot_cut, dilation._shortest_sums,
                         dilation._repair_sums)
    monkeypatch.setattr(gadget, "_slot_cut", counted_cut)
    monkeypatch.setattr(dilation, "_shortest_sums", counted_sums)
    monkeypatch.setattr(gadget, "_shortest_sums", counted_sums)
    monkeypatch.setattr(gadget, "_repair_sums", counted_repair)
    ii = integerize(build_gadget(PartitionInstance((1, 1, 1, 1, 1, 1, 5))))
    assert decide_partition(ii) is None
    assert len(cuts) == 585
    assert len(dijkstras) == 1
    assert (len(repaired), sum(repaired)) == (522, 3376)


@pytest.mark.parametrize("alphas", [
    (1,), (3,), (1, 1), (2, 2), (1, 2), (1, 1, 1), (1, 1, 2), (2, 3, 5),
    (1, 2, 4), (1, 1, 1, 2), (1, 2, 3, 4), (1, 1, 2, 8), (2, 1, 1, 2),
    (1, 1, 2, 2), (1, 1, 1, 1, 2, 2), (1, 1, 1, 1, 1, 1, 5),
])
def test_repaired_sums_match_a_fresh_dijkstra(alphas, monkeypatch):
    # at every node of the slot search, in both forms, the repaired sums
    # equal a fresh Dijkstra from q1 on the live graph, and the changed
    # set is exactly the vertices whose sum differs from the parent's
    g = build_gadget(PartitionInstance(alphas))
    repair, nodes = dilation._repair_sums, []

    def checked(ps, adj, before, u, v, bits):
        assert v not in adj[u] and u not in adj[v]
        after, changed = repair(ps, adj, before, u, v, bits)
        fresh = dilation._shortest_sums(ps, adj, g.q1, bits, 0)
        assert after == fresh
        assert changed == {x for x, s in enumerate(before) if s != fresh[x]}
        assert all(fresh[x] is None or fresh[x] > before[x] for x in changed)
        nodes.append(len(changed))
        return after, changed

    monkeypatch.setattr(gadget, "_repair_sums", checked)
    for inst in (g, integerize(g)):
        nodes.clear()
        decide_partition(inst)
        assert nodes


def _watched(lay):
    """The pairs the slot cut watches, as `graph_exceeds` triples (u, u, v)."""
    triples = [(lay.q2, lay.q2, lay.p2), (lay.q2, lay.q2, lay.mirror(lay.p2))]
    return triples + [(lay.d(i), lay.d(i), lay.mirror(lay.d(i)))
                      for i in range(1, lay.n + 1)]


def _one_pair(pts, triples, keep):
    """`pts.dist_ints` with the upper length of every pair of `triples`
    but `keep` raised by 2^64, so that no sum of the gadget reaches it."""
    real, others = pts.dist_ints, {frozenset(t[1:]) for t in triples}
    others.discard(frozenset(keep))

    def dist_ints(u, v, bits):
        lo, hi = real(u, v, bits)
        return (lo, hi << 64) if frozenset((u, v)) in others else (lo, hi)
    return dist_ints


@pytest.mark.parametrize("alphas", [(1,), (1, 1), (2, 3, 5), (1, 2, 4)])
def test_hanging_root_cut_is_the_separator_cut_of_its_pair(alphas,
                                                         monkeypatch):
    # at every attachment's root, at the threshold where the far pair's
    # sum ties its bound and one unit below, with the other pairs kept
    # from cutting, the shared q1 sums give the verdict of a Dijkstra from
    # q2 on the whole root graph; decide_partition hands every root those
    # sums
    g = build_gadget(PartitionInstance(alphas))
    cut, seen = gadget._slot_cut, []
    total = 8 * g.n + 8
    fixed, choices = gadget._family_skeleton(g)
    options = [e for slots in choices for slot in slots for e in slot]
    root_degree = 2 * len(fixed + options)
    monkeypatch.setattr(
        gadget, "_slot_cut",
        lambda lay, adj, attach, sums, changed, *args:
        (sum(map(len, adj)) == root_degree
         and seen.append((attach, sums, changed)))
        or cut(lay, adj, attach, sums, changed, *args))
    attachments = [g.q1] + list(range(g.q2 + 1, total))
    for inst in (g, integerize(g)):
        pts = inst.points
        adj = dilation._graph_adjacency(total, fixed + options)
        from_q1 = dilation._shortest_sums(pts, adj, g.q1, 64, 0)
        for attach in attachments:
            far = g.mirror(g.p2) if attach <= g.p2 else g.p2
            edges = fixed + options + [(g.q2, attach)]
            graph = dilation._graph_adjacency(total, edges)
            bound = pts.dist_ints(g.q2, far, 64)[1]
            sum_lo = dilation._shortest_sums(pts, graph, g.q2, 64, 0)[far]
            pts.dist_ints = _one_pair(pts, _watched(inst), (g.q2, far))
            try:
                for p_num in (sum_lo, sum_lo - 1):
                    limits = gadget._watch_limits(inst, p_num)
                    assert cut(inst, adj, attach, from_q1, None, limits,
                               bound) \
                        == graph_exceeds(pts, edges, p_num, bound,
                                         [(g.q2, g.q2, far)]) \
                        == (p_num < sum_lo)
            finally:
                del pts.dist_ints
        seen.clear()
        found = decide_partition(inst)
        assert found or [a for a, _, _ in seen] == attachments
        assert all(sums == from_q1 and changed is None
                   for _, sums, changed in seen)


@pytest.mark.parametrize("alphas", [
    (1,), (1, 1), (2, 3, 5), (1, 2, 4), (1, 1, 1, 2), (3, 5, 2, 4, 6),
    (1, 1, 1, 1, 1, 1, 5),
])
def test_shared_root_cut_keeps_the_slot_search(alphas, monkeypatch):
    # with the slot cut replaced by the plain cut of `graph_exceeds` on
    # the node graph, rebuilt from the live adjacency and q2's edge and
    # read without the repaired q1 sums and their changed set, the search
    # visits the same nodes
    # with the same verdicts and returns the same split and tree
    cut = gadget._slot_cut

    def plain(lay, adj, attach, from_q1, changed, limits, q):
        p = gadget.partition_threshold(lay.n, lay.sigma_dot)[0]
        edges = [(u, v) for u, row in enumerate(adj) for v in row if u < v]
        return graph_exceeds(lay.points, edges + [(lay.q2, attach)], p, q,
                             _watched(lay))

    def run(inst, slot_cut):
        calls = []

        def counted(lay, adj, attach, *args):
            got = slot_cut(lay, adj, attach, *args)
            calls.append((sum(map(len, adj)), attach, got))
            return got

        monkeypatch.setattr(gadget, "_slot_cut", counted)
        got = decide_partition(inst)
        monkeypatch.undo()
        return (got and (got[0], got[1].edges)), calls

    g = build_gadget(PartitionInstance(alphas))
    for inst in (g, integerize(g)):
        got, calls = run(inst, cut)
        assert (got, calls) == run(inst, plain)
        assert len(calls) > 1


@pytest.mark.parametrize("alphas", [
    (1,), (1, 1), (2, 3, 5), (1, 2, 4), (1, 1, 1, 2), (1, 1, 2, 2),
    (1, 1, 1, 1, 1, 1, 5), (3, 5, 2, 4, 6),
])
def test_separator_exceeds_matches_graph_exceeds(alphas, monkeypatch):
    # the slot search's separator cut reads every watched pair through
    # q1, with q2 left out of its live graph.  At every node it gets the
    # verdict of `graph_exceeds` on the node graph rebuilt from the live
    # adjacency and q2's edge, with plain Dijkstras from each pair's first
    # vertex (s = u), at the threshold and at looser ones that leave more
    # pairs uncertified, both when it tests only the pairs its changed set
    # moves and when it tests every pair.  At each pair's tie threshold
    # and one unit below it, with the other pairs kept from cutting, the
    # full cut must read the sum D_u(v) that `graph_exceeds` reads
    cut = gadget._slot_cut
    nodes = []

    def checked(lay, adj, attach, from_q1, changed, limits, q):
        pts, q2 = lay.points, lay.q2
        assert not adj[q2]
        assert from_q1 == dilation._shortest_sums(pts, adj, lay.q1, 64, 0)
        edges = [(u, v) for u, row in enumerate(adj) for v in row if u < v]
        edges.append((q2, attach))
        triples = _watched(lay)
        p = gadget.partition_threshold(lay.n, lay.sigma_dot)[0]
        assert limits == gadget._watch_limits(lay, p)
        for loose in (1, 2, 8):
            loose_limits = [(u, v, loose * lim) for u, v, lim in limits]
            assert cut(lay, adj, attach, from_q1, changed, loose_limits, q) \
                == cut(lay, adj, attach, from_q1, None, loose_limits, q) \
                == graph_exceeds(pts, edges, loose * p, q, triples)
        graph = dilation._graph_adjacency(len(adj), edges)
        for _, u, v in triples:
            sum_lo = dilation._shortest_sums(pts, graph, u, 64, 0)[v]
            bound = pts.dist_ints(u, v, 64)[1]
            pts.dist_ints = _one_pair(pts, triples, (u, v))
            try:
                for p_num in (sum_lo, sum_lo - 1):
                    tie = gadget._watch_limits(lay, p_num)
                    assert cut(lay, adj, attach, from_q1, None, tie, bound) \
                        == (p_num < sum_lo)
            finally:
                del pts.dist_ints
        nodes.append(attach)
        return cut(lay, adj, attach, from_q1, changed, limits, q)

    monkeypatch.setattr(gadget, "_slot_cut", checked)
    g = build_gadget(PartitionInstance(alphas))
    total = 8 * g.n + 8
    fixed, choices = gadget._family_skeleton(g)
    options = [e for slots in choices for slot in slots for e in slot]
    for inst in (g, integerize(g)):
        nodes.clear()
        found = decide_partition(inst)
        assert len(nodes) > 1
        # every attachment's root is visited when no tree is found
        assert found or set(nodes) == {g.q1} | set(range(2, total))
        # with both options of a slot gone, a1's chain is cut off: under
        # 1/0 no pair exceeds, and only the unreached vertices cut
        for dropped in ([], choices[0][0]):
            edges = fixed + [e for e in options if e not in dropped]
            adj = dilation._graph_adjacency(total, edges)
            from_q1 = dilation._shortest_sums(inst.points, adj, g.q1, 64, 0)
            limits = gadget._watch_limits(inst, 1)
            assert cut(inst, adj, g.q1, from_q1, None, limits, 0) \
                == graph_exceeds(inst.points, edges + [(g.q2, g.q1)], 1, 0,
                                 _watched(inst)) == bool(dropped)


@pytest.mark.parametrize("alphas", [(1,), (1, 1), (2, 3, 5)])
def test_changed_attachment_retests_the_far_pair(alphas, monkeypatch):
    # a right-half attachment whose q1 sum grows moves the far pair through
    # p2' while p2' itself is unchanged; at a threshold the parent's sum
    # passes and the child's exceeds, with the other pairs kept from
    # cutting, the child's cut must re-test the far pair and cut
    g = build_gadget(PartitionInstance(alphas))
    total, far = 8 * g.n + 8, g.mirror(g.p2)
    fixed, choices = gadget._family_skeleton(g)
    options = [e for slots in choices for slot in slots for e in slot]
    for inst in (g, integerize(g)):
        pts, seen = inst.points, 0
        for u, v in (e for right, _ in choices for e in right):
            adj = dilation._graph_adjacency(total, fixed + options)
            root = dilation._shortest_sums(pts, adj, g.q1, 64, 0)
            adj[u].remove(v)
            adj[v].remove(u)
            sums, changed = dilation._repair_sums(pts, adj, root, u, v, 64)
            assert far not in changed
            for attach in sorted(x for x in changed if sums[x] is not None):
                hang = pts.dist_ints(g.q2, attach, 64)[0]
                child = hang + sums[attach] + sums[far]
                # the parent's far sum is within (child - 1) / bound
                assert hang + root[attach] + root[far] < child
                bound = pts.dist_ints(g.q2, far, 64)[1]
                pts.dist_ints = _one_pair(pts, _watched(inst), (g.q2, far))
                try:
                    limits = gadget._watch_limits(inst, child - 1)
                    assert gadget._slot_cut(inst, adj, attach, sums, changed,
                                            limits, bound)
                finally:
                    del pts.dist_ints
                seen += 1
        assert seen


@pytest.mark.parametrize("alphas", [(1,), (1, 1), (2, 3, 5)])
def test_q1_separates_the_halves_of_every_root_graph(alphas):
    # the cut's sums are exact only because q1 is a cut vertex between
    # the halves and q2 hangs off one vertex
    g = build_gadget(PartitionInstance(alphas))
    total = 8 * g.n + 8
    half = 4 * g.n + 3
    right = set(range(2, half + 2))
    fixed, choices = gadget._family_skeleton(g)
    options = [e for slots in choices for slot in slots for e in slot]
    for attach in [g.q1] + list(range(2, total)):
        edges = fixed + [(g.q2, attach)] + options
        for u, v in edges:
            if g.q1 not in (u, v) and g.q2 not in (u, v):
                assert (u in right) == (v in right), (u, v)
        at_q1 = {v if u == g.q1 else u for u, v in edges if g.q1 in (u, v)}
        assert at_q1 - {g.q2} == {g.a(1), g.mirror(g.a(1))}
        assert sum(g.q2 in e for e in edges) == 1


def test_decide_rejects_tampered_integer_points():
    g = build_gadget(PartitionInstance((1, 1)))
    ii = integerize(g)
    pts = list(ii.points.points)
    j = ii.d(1)
    shift = 1800 << ii.k
    pts[j] = Point(pts[j].x + shift, pts[j].y)
    bad = IntegerInstance(alphas_dot=ii.alphas_dot, k=ii.k,
                          points=PointSet(pts, labels=ii.points.labels))
    with pytest.raises(ValueError, match="choice edge 1 does not encode"):
        decide_partition(bad)
    # the same points declared with the weights swapped
    g = build_gadget(PartitionInstance((2, 1)))
    ii = integerize(g)
    with pytest.raises(ValueError, match="choice edge 1 does not encode"):
        decide_partition(IntegerInstance((1, 2), ii.k, ii.points))


# ---------------------------------------------------------------------------
# dynamic-programming oracle


def test_oracle_examples():
    sol = partition_oracle(PartitionInstance((1, 1)))
    assert sol.consistent_with((1, 1))
    assert partition_oracle(PartitionInstance((1, 1, 1))) is None
    sol = partition_oracle(PartitionInstance((2, 3, 5)))
    assert (sol.A, sol.A_prime) == (frozenset({1, 2}), frozenset({3}))
    assert partition_oracle(PartitionInstance((1, 2, 4))) is None
    sol = partition_oracle(PartitionInstance((3, 1, 1, 2, 2, 1)))
    assert sol.consistent_with((3, 1, 1, 2, 2, 1))


def test_oracle_handles_large_even_totals():
    assert partition_oracle(PartitionInstance((999999, 1))) is None
    sol = partition_oracle(PartitionInstance((500000, 499999, 1)))
    assert sol.consistent_with((500000, 499999, 1))


def test_oracle_sum_guard():
    with pytest.raises(SumTooLarge):
        partition_oracle(PartitionInstance((500001, 500001)))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=25), min_size=1,
                max_size=8))
def test_oracle_matches_brute_force(alphas):
    inst = PartitionInstance(tuple(alphas))
    sol = partition_oracle(inst)
    mask = brute_force_split(inst.alphas_dot)
    if mask is None:
        assert sol is None
    else:
        assert sol is not None
        assert sol.consistent_with(inst.alphas_dot)


# ---------------------------------------------------------------------------
# stability of the encoding


def test_small_shifts_cannot_cross_the_gap():
    rng = random.Random(7)
    inst = PartitionInstance((1, 1))
    g = build_gadget(inst)
    n = g.n
    eps = Fraction(1, 1 << 40)
    bound = Fraction(1 << (2 * (n + 6))) * n * eps
    trees = [standard_tree(g, half) for half in ({1}, {2}, set(), {1, 2})]
    pairs = [(g.q2, g.p2), (g.q2, g.mirror(g.p2)), (g.d(1), g.mirror(g.d(1))),
             (g.a(1), g.p2), (g.b(1), g.c(2))]
    for _ in range(3):
        shaken = PointSet([
            Point(p.x + Fraction(rng.randint(-(1 << 19), 1 << 19), 1 << 60),
                  p.y + Fraction(rng.randint(-(1 << 19), 1 << 19), 1 << 60))
            for p in g.points.points])
        for tree in trees:
            for u, v in pairs:
                before = pair_dilation(g.points, tree, u, v, 80)
                after = pair_dilation(shaken, tree, u, v, 80)
                diff = abs((after.lo + after.hi) - (before.lo + before.hi)) / 2
                assert diff < bound
