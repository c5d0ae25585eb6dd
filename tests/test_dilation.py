import itertools
import random
from fractions import Fraction
from functools import partial
from math import dist, gcd, isqrt, lcm

import pytest

from dilatree import dilation
from dilatree.dilation import (
    DilationReport, PointSet, Tree, Verdict, compare_to_threshold,
    critical_edges, crossing_edge_pairs, graph_dilation_bounds,
    pair_dilation, root_sums, tree_dilation, tree_exact, tree_has_crossing,
    tree_path_length, _critical_scan, _pair_ratios, _straight_tree,
    _tree_blocks,
)
from dilatree.errors import PrecisionExhausted
from dilatree.exactgeom import (Interval, Segment, orientation, pt,
                                round_dyadic, segments_properly_cross,
                                sqrt_interval, squared_distance)
from dilatree.gadget import PartitionInstance, build_gadget, integerize
from dilatree.radical import SqrtSum
from dilatree.solver import Mode, SolverOptions, mdst_exact, _RunningScreen

from conftest import graph_exceeds


def test_pointset_validation():
    with pytest.raises(ValueError):
        PointSet([pt(0, 0)])
    with pytest.raises(ValueError):
        PointSet([pt(0, 0), pt(0, 0)])
    with pytest.raises(ValueError):
        PointSet([pt(0, 0), pt(1, 0)], labels=["a"])
    # distinctness is decided over the common denominator: 1/2 and 2/4
    # are one point, 1/3 and 1/2 are two
    with pytest.raises(ValueError, match="pairwise distinct"):
        PointSet([pt(Fraction(1, 3), 1), pt(Fraction(1, 2), 0),
                  pt("2/4", 0)])
    ps = PointSet([pt(Fraction(1, 3), 0), pt(Fraction(1, 2), 0)])
    assert (ps.den, ps.distance_sq(0, 1)) == (6, Fraction(1, 36))


def _from_ints_and_points(xy, den, labels):
    """The same points through both constructors."""
    by_ints = PointSet.from_ints(xy, den, labels)
    by_points = PointSet([pt(Fraction(x, den), Fraction(y, den))
                          for x, y in xy], labels)
    return by_ints, by_points


@pytest.mark.parametrize("den", [1, 2, 6, 1800, 1800 << 40, 7 ** 5])
def test_pointset_from_ints_equals_the_point_constructor(den):
    rng = random.Random(den)
    xy = list({(rng.randint(-10 ** 6, 10 ** 6) * rng.choice([1, 2, 3, 8]),
                rng.randint(-10 ** 6, 10 ** 6)) for _ in range(12)})
    labels = [f"p{i}" for i in range(len(xy))]
    for lab in (None, labels):
        a, b = _from_ints_and_points(xy, den, lab)
        assert a.points == b.points and a.den == b.den
        assert a.labels == b.labels
        assert a.numerators == b.numerators
        for bits in (8, 64):
            assert [a.dist_ints(i, j, bits) for i in range(a.n)
                    for j in range(a.n)] \
                == [b.dist_ints(i, j, bits) for i in range(b.n)
                    for j in range(b.n)]
    # a common factor of every numerator and den cancels, as in Fractions
    a, b = _from_ints_and_points([(0, 6), (12, 0), (18, 30)], 36, None)
    assert a.den == b.den == 6
    assert a.numerators == b.numerators == [(0, 1), (2, 0), (3, 5)]


def test_pointset_from_ints_validation_matches_the_point_constructor():
    cases = [
        ([(0, 0)], 1, None, "at least two points"),
        ([(1, 2), (3, 4), (1, 2)], 2, None, "pairwise distinct"),
        ([(0, 0), (1, 0)], 3, ["a"], "one to one"),
    ]
    for xy, den, labels, message in cases:
        for build in (lambda: PointSet.from_ints(xy, den, labels),
                      lambda: PointSet([pt(Fraction(x, den), Fraction(y, den))
                                        for x, y in xy], labels)):
            with pytest.raises(ValueError, match=message):
                build()
    with pytest.raises(ValueError, match="denominator must be positive"):
        PointSet.from_ints([(0, 0), (1, 0)], 0)


def test_tree_validation():
    with pytest.raises(ValueError):
        Tree(3, [(0, 1)])                       # too few edges
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (0, 1), (2, 3)])       # duplicate
    with pytest.raises(ValueError):
        Tree(4, [(0, 1), (1, 2), (0, 2)])       # cycle, vertex 3 isolated
    with pytest.raises(ValueError):
        Tree(3, [(0, 1), (1, 3)])               # out of range
    t = Tree(4, [(2, 1), (0, 1), (2, 3)])
    assert t.edges == ((0, 1), (1, 2), (2, 3))
    assert t.has_edge(1, 0) and not t.has_edge(0, 3)


def test_tree_paths():
    t = Tree(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    assert t.path_vertices(0, 4) == [0, 1, 3, 4]
    assert t.path_edges(4, 0) == [(3, 4), (1, 3), (0, 1)]
    assert t.path_vertices(2, 2) == [2]


def random_tree_instance(rng, n, offset):
    coords = set()
    while len(coords) < n:
        coords.add((rng.randint(0, 200) + offset, rng.randint(0, 200) + offset))
    ps = PointSet.from_coords(sorted(coords))
    labels = list(range(n))
    rng.shuffle(labels)
    edges = [(labels[k], labels[rng.randrange(k)]) for k in range(1, n)]
    return ps, Tree(n, edges)


def summed_path(ps, tree, u, v, bits):
    lo = hi = 0
    for a, b in tree.path_edges(u, v):
        elo, ehi = ps.dist_ints(a, b, bits)
        lo += elo
        hi += ehi
    return lo, hi


@pytest.mark.parametrize("offset", [0, 1 << 54, 1 << 60])
def test_root_sums_match_summed_tree_paths(offset):
    rng = random.Random(offset % 1009 + 17)
    for n in (5, 9, 17, 30):
        ps, tree = random_tree_instance(rng, n, offset)
        for bits in (32, 64, 256):
            for u in range(n):
                sums = root_sums(ps, tree.adjacency(), u, bits)
                assert sums == [summed_path(ps, tree, u, v, bits)
                                for v in range(n)]


@pytest.mark.parametrize("offset", [0, 1 << 54, 1 << 60])
def test_root_sums_on_partial_forest(offset):
    # the branch-and-bound grows a forest of set adjacencies; a root must
    # reach exactly its own component, with the sums of the full tree
    rng = random.Random(offset % 1013 + 5)
    for n in (5, 12, 30):
        ps, tree = random_tree_instance(rng, n, offset)
        kept = [e for e in tree.edges if rng.random() < 0.6]
        adj = [set() for _ in range(n)]
        for a, b in kept:
            adj[a].add(b)
            adj[b].add(a)
        for bits in (32, 64, 256):
            for u in range(n):
                sums = root_sums(ps, adj, u, bits)
                for v in range(n):
                    connected = all(e in kept for e in tree.path_edges(u, v))
                    expect = summed_path(ps, tree, u, v, bits) \
                        if connected else None
                    assert sums[v] == expect


def block_trees(rng):
    """(n, tree) for the pair-sum kernel: random trees, a star centred
    off vertex 0, a path with vertex 0 inside it, and under shuffled
    labels a caterpillar and a complete binary tree of 1,024 vertices."""
    for n in (2, 5, 9, 17, 30):
        yield n, random_tree(rng, n)
    yield 12, Tree(12, [(5, v) for v in range(12) if v != 5])
    order = rng.sample(range(1, 12), 11)
    order.insert(4, 0)
    yield 12, Tree(12, list(zip(order, order[1:])))
    labels = list(range(1024))
    rng.shuffle(labels)
    spine = [(labels[2 * i], labels[2 * i + 2]) for i in range(511)]
    legs = [(labels[2 * i], labels[2 * i + 1]) for i in range(512)]
    yield 1024, Tree(1024, spine + legs)
    rng.shuffle(labels)
    yield 1024, Tree(1024, [(labels[i], labels[(i - 1) // 2])
                            for i in range(1, 1024)])


@pytest.mark.parametrize("offset, scale",
                         [(0, 1), (1 << 54, 1), (0, Fraction(1, 1 << 100))])
def test_tree_blocks_give_every_pair_once_with_the_root_sums(offset, scale):
    # each block's placed list is every vertex placed before it, so a pair
    # is read once, in the block of its later vertex; its sums are those
    # of the root_sums row, and no more than floor(log2 n) + 1 rows, the
    # block's own included, are kept at once
    rng = random.Random(53)
    for n, tree in block_trees(rng):
        coords = set()
        while len(coords) < n:
            coords.add((rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)))
        ps = PointSet.from_coords([((x + offset) * scale, (y + offset) * scale)
                                   for x, y in sorted(coords)])
        blocks = _tree_blocks(ps, tree, 68)
        done, most = [0], 0
        for x, placed, row in blocks:
            most = max(most, len(blocks.gi_frame.f_locals["alive"]) + 1)
            assert placed == done and len(row) == len(placed)
            # one row in 16 on the large trees
            if n < 100 or x % 16 == 0:
                sums = root_sums(ps, tree.adjacency(), x, 68)
                assert row == [sums[v] for v in placed]
            done.append(x)
        assert sorted(done) == list(range(n))
        assert most <= n.bit_length()


def common_denominator(ps):
    return lcm(*(c.denominator for p in ps.points for c in (p.x, p.y)))


def fraction_dist_ints(ps, i, j, bits):
    """`sqrt_interval` of the squared numerator distance, |p_i p_j|^2 den^2
    for the common denominator den, rescaled to 2^-(bits+8) by floor and
    ceil: `dist_ints` in its unit 2^-(bits+8)/den."""
    d2 = squared_distance(ps[i], ps[j]) * common_denominator(ps) ** 2
    enc = sqrt_interval(d2, bits)
    lo, hi = enc.lo * (1 << (bits + 8)), enc.hi * (1 << (bits + 8))
    return lo.numerator // lo.denominator, -(-hi.numerator // hi.denominator)


def kernel_sets(offset):
    # per common denominator: random points, a 3-4-5 and a 5-12-13 triple
    # (perfect-square distances), and a cluster spaced 1/den, whose
    # distances are tiny for den = 2^70 and 10^9+7
    rng = random.Random(offset % 997 + 3)
    sets = []
    for den in (1, 3, 1 << 70, 10 ** 9 + 7):
        coords = {(0, 0), (3, 4), (-5, 12)}
        while len(coords) < 7:
            coords.add((rng.randint(-50, 50), rng.randint(-50, 50)))
        pts = [(x + offset, y + offset) for x, y in coords]
        pts += [(Fraction(a, den) + 100 + offset, Fraction(b, den) + offset)
                for a, b in ((1, 0), (3, 4), (2, 7))]
        sets.append(PointSet.from_coords(pts))
    # mixed denominators: the common one is their lcm
    sets.append(PointSet.from_coords(
        [(Fraction(1, 3) + offset, Fraction(1, 1 << 70)),
         (Fraction(2, 10 ** 9 + 7), offset), (offset, Fraction(5, 7)),
         (Fraction(3, 1 << 70), Fraction(4, 1 << 70))]))
    return sets


@pytest.mark.parametrize("offset", [0, 1 << 60])
def test_dist_ints_matches_fraction_kernel(offset):
    tiny = squares = 0
    for ps in kernel_sets(offset):
        for i, j in itertools.combinations(range(ps.n), 2):
            d2 = ps.distance_sq(i, j)
            assert d2 == squared_distance(ps[i], ps[j])
            tiny += d2 < Fraction(1, 1 << 40)
            squares += isqrt(d2.numerator) ** 2 == d2.numerator \
                and isqrt(d2.denominator) ** 2 == d2.denominator
            for bits in (1, 2, 8, 33, 64, 300):
                lo, hi = ps.dist_ints(j, i, bits)
                assert (lo, hi) == fraction_dist_ints(ps, i, j, bits)
                unit = ps.den << (bits + 8)
                assert lo * lo <= d2 * unit ** 2 <= hi * hi
                # `bits` of precision relative to |uv|, however tiny
                assert (hi - lo) << (bits - 1) <= lo
        assert ps.den == common_denominator(ps)
    assert tiny >= 3 and squares >= 3


@pytest.mark.parametrize("bits", [0, -3])
def test_dist_ints_rejects_nonpositive_bits(bits):
    ps = PointSet.from_coords([(0, 0), (1, 0)])
    with pytest.raises(ValueError, match="bits must be positive"):
        ps.dist_ints(0, 1, bits)


@pytest.mark.parametrize("offset", [0, 1 << 60])
def test_table_is_the_symmetric_dist_ints_matrix(offset):
    # denominators 1, 3, 2^70 and 10^9+7, and a mixed set
    for ps in kernel_sets(offset):
        for bits in (1, 8, 33, 64, 300):
            tab = ps.table(bits)
            assert ps.table(bits) is tab and len(tab) == ps.n
            assert all(len(row) == ps.n for row in tab)
            assert all(tab[i][i] == (0, 0) for i in range(ps.n))
            # filled on demand: a miss fills both entries of its pair
            assert all(tab[i][j] is None for i, j in
                       itertools.permutations(range(ps.n), 2))
            for i, j in itertools.combinations(range(ps.n), 2):
                enc = ps.dist_ints(j, i, bits)
                assert tab[i][j] == ps.dist_ints(i, j, bits) == tab[j][i]
                assert enc == tab[i][j] == fraction_dist_ints(ps, i, j, bits)


def test_solver_screen_reads_the_point_set_table():
    coords = [(0, 0), (1, 0), (3, 1), (5, 4), (1, 6)]
    ps = PointSet.from_coords(coords)
    screen = _RunningScreen(ps)
    assert screen.lens is ps.table(32)
    assert all(e is not None for row in screen.lens for e in row)
    # scaled by 2^-100, the set has the same numerators over a larger
    # denominator, so the screen reads the same table at the same bits
    tiny = Fraction(1, 1 << 100)
    small = PointSet.from_coords([(x * tiny, y * tiny) for x, y in coords])
    screen = _RunningScreen(small)
    assert screen.lens is small.table(32)
    assert screen.lens == ps.table(32)


@pytest.mark.parametrize("offset", [0, 1 << 60])
def test_pair_ratios_round_like_round_dyadic(offset):
    # integer floor/ceil division on the grid 2^-(bits+4) is round_dyadic
    # of the Fraction ratios of the enclosures it divides
    rng = random.Random(offset % 1019 + 29)
    for n in (5, 9):
        ps, tree = random_tree_instance(rng, n, offset)
        for bits in (1, 8, 33, 64, 300):
            f = bits + 4
            ratios = _pair_ratios(ps, partial(_tree_blocks, ps, tree), bits)
            for (u, v), (lo, hi) in ratios.items():
                assert u < v
                dlo, dhi = root_sums(ps, tree.adjacency(), u, f)[v]
                llo, lhi = ps.dist_ints(u, v, f)
                assert Fraction(lo, 1 << f) == \
                    round_dyadic(Fraction(dlo, lhi), f, "floor")
                assert Fraction(hi, 1 << f) == \
                    round_dyadic(Fraction(dhi, llo), f, "ceil")
                enc = pair_dilation(ps, tree, u, v, bits)
                assert (enc.lo, enc.hi, enc.bits) == \
                    (Fraction(lo, 1 << f), Fraction(hi, 1 << f), bits)


@pytest.mark.parametrize("offset", [0, 1 << 60])
def test_pair_ratios_leave_out_only_pairs_below_an_earlier_lo(offset):
    # a pair left out has an upper ratio certainly below the lower ratio
    # of a pair the scan read before it, so it could neither reach nor
    # raise the maximum; the comb and the chain hold many exactly tied
    # pairs
    rng = random.Random(offset % 1019 + 31)
    cases = [random_tree_instance(rng, n, offset) for n in (9, 30)]
    for ps, tree in cases + [grid_comb(), collinear_chain(), prim_mst(40)]:
        blocks = partial(_tree_blocks, ps, tree)
        for bits in (1, 8, 64):
            pairs = [(min(x, v), max(x, v))
                     for x, placed, _ in blocks(bits + 4) for v in placed]
            assert sorted(pairs) == list(itertools.combinations(range(ps.n),
                                                                2))
            kept = _pair_ratios(ps, blocks, bits)
            best = 0
            for u, v in pairs:
                if (u, v) in kept:
                    best = max(best, kept[u, v][0])
                else:
                    hi = pair_dilation(ps, tree, u, v, bits).hi
                    assert hi * (1 << (bits + 4)) < best


def square_star():
    ps = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
    return ps, Tree(4, [(0, 1), (0, 2), (0, 3)])


def square_path():
    ps = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
    return ps, Tree(4, [(0, 1), (1, 2), (2, 3)])


@pytest.mark.parametrize("call", [pair_dilation, tree_path_length])
def test_pair_queries_reject_a_tree_of_another_size(call):
    ps, _ = square_path()
    with pytest.raises(ValueError, match="sizes differ"):
        call(ps, Tree(3, [(0, 1), (1, 2)]), 0, 2, 64)
    ps3 = PointSet([pt(0, 0), pt(1, 0), pt(1, 1)])
    with pytest.raises(ValueError, match="sizes differ"):
        call(ps3, square_path()[1], 0, 2, 64)


@pytest.mark.parametrize("call", [pair_dilation, tree_path_length])
@pytest.mark.parametrize("u, v", [(-1, 2), (0, -4), (-4, -1)])
def test_pair_queries_reject_negative_vertices(call, u, v):
    # a negative index would read a vertex from the end of a row
    ps, tree = square_path()
    with pytest.raises(ValueError, match="out of range"):
        call(ps, tree, u, v, 64)


@pytest.mark.parametrize("call", [pair_dilation, tree_path_length])
@pytest.mark.parametrize("u, v", [(0, 4), (4, 1), (7, 9)])
def test_pair_queries_reject_vertices_past_the_last(call, u, v):
    ps, tree = square_path()
    with pytest.raises(ValueError, match="out of range"):
        call(ps, tree, u, v, 64)


def test_pair_dilation_takes_either_order():
    ps, tree = square_path()
    for u, v in itertools.permutations(range(4), 2):
        assert pair_dilation(ps, tree, u, v, 64) \
            == pair_dilation(ps, tree, v, u, 64)
        assert tree_path_length(ps, tree, u, v, 64) \
            == tree_path_length(ps, tree, v, u, 64)


def test_tree_path_length_exact_cases():
    ps = PointSet([pt(0, 0), pt(3, 4), pt(6, 0)])
    t = Tree(3, [(0, 1), (1, 2)])
    enc = tree_path_length(ps, t, 0, 2, 64)
    assert enc.lo == enc.hi == 10
    enc01 = tree_path_length(ps, t, 0, 1, 64)
    assert enc01.lo == enc01.hi == 5


def test_tree_path_length_contains_truth():
    ps, t = square_path()
    enc = tree_path_length(ps, t, 0, 3, 64)
    assert enc.lo == enc.hi == 3
    ps2, t2 = square_star()
    enc = tree_path_length(ps2, t2, 1, 2, 64)
    # 1 + sqrt(2), reference digits exceed the enclosure width
    assert enc.contains(Fraction("2.41421356237309504880168872420969808"))
    assert enc.width <= Fraction(1, 1 << 60)


def test_pair_dilation_collinear_is_one():
    ps = PointSet([pt(0, 0), pt(1, 0), pt(3, 0)])
    t = Tree(3, [(0, 1), (1, 2)])
    enc = pair_dilation(ps, t, 0, 2, 64)
    assert enc.contains(1)
    assert enc.width <= Fraction(1, 1 << 60)
    assert enc.lo >= 1 - Fraction(1, 1 << 62)


def test_pair_dilation_lower_bound_invariant():
    rng = random.Random(5)
    for _ in range(30):
        coords = set()
        while len(coords) < 5:
            coords.add((rng.randint(-50, 50), rng.randint(-50, 50)))
        ps = PointSet.from_coords(sorted(coords))
        edges = [(i, i + 1) for i in range(4)]
        t = Tree(5, edges)
        for bits in (16, 32, 64):
            u, v = rng.sample(range(5), 2)
            enc = pair_dilation(ps, t, min(u, v), max(u, v), bits)
            assert enc.lo >= 1 - Fraction(1, 1 << (bits - 2))
            assert enc.lo <= enc.hi


@pytest.mark.parametrize("bits", [0, -3])
def test_tree_dilation_rejects_nonpositive_bits(bits):
    # the center star of the 2 x 2 square ties its four sides
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    star = Tree(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    assert tree_dilation(ps, star, 64).tied
    with pytest.raises(ValueError, match="bits must be positive"):
        tree_dilation(ps, star, bits)
    with pytest.raises(ValueError, match="bits must be positive"):
        pair_dilation(ps, star, 0, 1, bits)


def test_tree_dilation_square_path():
    ps, t = square_path()
    rep = tree_dilation(ps, t, 64)
    assert rep.witness == (0, 3)
    assert rep.value.contains(3)
    assert not rep.tied


def test_tree_dilation_square_star_tie():
    # star from one corner: pairs (1,2) and (2,3) both attain 1 + sqrt(2)
    ps, t = square_star()
    rep = tree_dilation(ps, t, 64)
    assert rep.tied
    assert rep.witness == (1, 2)
    # contains 1 + sqrt(2), checked by rational squaring
    assert rep.value.lo >= 1 and (rep.value.lo - 1) ** 2 <= 2
    assert (rep.value.hi - 1) ** 2 >= 2


def test_tree_dilation_all_ties_on_collinear_path():
    ps = PointSet([pt(0, 0), pt(1, 0), pt(2, 0), pt(4, 0)])
    t = Tree(4, [(0, 1), (1, 2), (2, 3)])
    rep = tree_dilation(ps, t, 64)
    assert rep.tied
    assert rep.witness == (0, 1)
    assert rep.value.contains(1)


def test_tree_metric_additivity():
    ps, t = square_path()
    for bits in (32, 64):
        d03 = tree_path_length(ps, t, 0, 3, bits)
        d01 = tree_path_length(ps, t, 0, 1, bits)
        d13 = tree_path_length(ps, t, 1, 3, bits)
        assert d03.lo == d01.lo + d13.lo
        assert d03.hi == d01.hi + d13.hi


def test_compare_to_threshold_basic():
    ps, t = square_path()
    assert compare_to_threshold(ps, t, 3, 1) is Verdict.AT_MOST   # == 3 exactly
    assert compare_to_threshold(ps, t, 2, 1) is Verdict.GREATER
    assert compare_to_threshold(ps, t, 301, 100) is Verdict.AT_MOST
    with pytest.raises(ValueError):
        compare_to_threshold(ps, t, 1, 2)


def test_compare_to_threshold_exact_equality_hit():
    # threshold equal to the true dilation: interval refinement alone can
    # never separate, the symbolic fallback must settle it as AT_MOST
    ps = PointSet([pt(0, 0), pt(1, 0), pt(2, 0)])
    t = Tree(3, [(0, 1), (1, 2)])
    assert compare_to_threshold(ps, t, 1, 1) is Verdict.AT_MOST


def test_compare_to_threshold_adversarial_rational():
    # thresholds within 10^-130 of 1 + sqrt(2) on either side
    ps, t = square_star()
    q = 10 ** 130
    p = q + isqrt(2 * q * q)          # floor((1 + sqrt 2) * q)
    assert compare_to_threshold(ps, t, p, q) is Verdict.GREATER
    assert compare_to_threshold(ps, t, p + 1, q) is Verdict.AT_MOST


def test_tree_dilation_threshold_field():
    # 1 + sqrt(2) ~ 2.4142 sits between 5/2 and 49/20 = 2.45
    ps, t = square_star()
    assert compare_to_threshold(ps, t, 12, 5) is Verdict.GREATER
    assert compare_to_threshold(ps, t, 49, 20) is Verdict.AT_MOST


def test_critical_edges_collinear():
    ps = PointSet([pt(0, 0), pt(1, 0), pt(2, 0)])
    assert critical_edges(ps, 8, 5) == frozenset({(0, 1), (1, 2)})


def test_critical_edges_square():
    # unit square at delta = 8/5: sides have detours 1 + 1 = 2 > 8/5;
    # diagonals have detours 2 < (8/5) sqrt(2) ~ 2.26, not critical
    ps = PointSet([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)])
    got = critical_edges(ps, 8, 5)
    assert got == frozenset({(0, 1), (1, 2), (2, 3), (0, 3)})


def test_critical_edges_equality_threshold():
    # unit-spaced collinear points on the diagonal at delta = 3: the
    # detour around a short edge is exactly 3 times its length, an
    # irrational equality only the symbolic fallback can settle; the
    # strict inequality fails, so nothing is critical
    ps = PointSet([pt(0, 0), pt(1, 1), pt(2, 2)])
    assert critical_edges(ps, 3, 1) == frozenset()
    # one notch below 3 the short edges become critical again
    assert critical_edges(ps, 29, 10) == frozenset({(0, 1), (1, 2)})


@pytest.mark.parametrize("offset", [0, 1 << 54])
def test_collinear_chain_with_large_prime_squares_meets_one(offset):
    # steps of (4099, 4099) and (4111, 4111), both primes above 4096: each
    # radicand 2 p^2 hides its square from any small-prime factoring, and
    # the chain's dilation is exactly 1
    ps = PointSet.from_coords([(offset + k, offset + k) for k in (0, 4099, 8210)])
    t = Tree(3, [(0, 1), (1, 2)])
    assert compare_to_threshold(ps, t, 1, 1) is Verdict.AT_MOST
    assert critical_edges(ps, 1, 1) == frozenset({(0, 1), (1, 2)})
    assert tree_dilation(ps, t, 64).value.contains(1)


def _exact_dist(ps, u, v):
    return SqrtSum.sqrt_of(ps.distance_sq(u, v))


def brute_critical(ps, d, length):
    """Pairs (u, v) with (d/length)|uv| < |uw| + |wv| for every other w,
    from exact `SqrtSum` signs alone."""
    out = set()
    for u, v in itertools.combinations(range(ps.n), 2):
        scaled = _exact_dist(ps, u, v) * d
        if all(((_exact_dist(ps, u, w) + _exact_dist(ps, w, v)) * length
                - scaled).sign() > 0
               for w in range(ps.n) if w not in (u, v)):
            out.add((u, v))
    return frozenset(out)


@pytest.mark.parametrize("offset", [0, 1 << 54])
def test_critical_edges_match_exact_brute_force(offset):
    # each set holds a triple (u, w, v) whose detour meets the threshold
    # exactly: a 3-4-5 right angle at 7/5, or a collinear w at 1
    rng = random.Random(61)
    exact_triples = [((0, 0), (3, 0), (3, 4), 7, 5),
                     ((0, 0), (1, 2), (2, 4), 1, 1)]
    for trial in range(24):
        *triple, p, q = exact_triples[trial % 2]
        k, n = rng.randint(1, 4), rng.randint(5, 7)
        coords = {(k * x, k * y) for x, y in triple}
        while len(coords) < n:
            coords.add((rng.randint(-12, 12), rng.randint(-12, 12)))
        coords = sorted(coords)
        rng.shuffle(coords)
        ps = PointSet.from_coords([(x + offset, y + offset) for x, y in coords])
        # at 1/1 and 1/2 the triangle bound (1 + P/Q)/2 is at most 1
        for p_num, q_den in ((p, q), (8, 5), (3, 2), (1, 1), (1, 2)):
            assert critical_edges(ps, p_num, q_den) == brute_critical(
                ps, SqrtSum.rational(p_num), SqrtSum.rational(q_den))
        # an irrational ratio met exactly: the detour of a random triple
        u, w, v = rng.sample(range(ps.n), 3)
        d = _exact_dist(ps, u, w) + _exact_dist(ps, w, v)
        length = _exact_dist(ps, u, v)
        assert _critical_scan(ps, d, length, 64) \
            == brute_critical(ps, d, length)


@pytest.mark.parametrize("alphas", [(1,), (1, 2)])
def test_critical_edges_of_gadgets_match_exact_brute_force(alphas):
    # the gadget's forced edges at 8/5, its integerized form also at its
    # own threshold P/Q, and both at 1/1 and 1/2
    g = build_gadget(PartitionInstance(alphas))
    ii = integerize(g)
    for ps, thresholds in ((g.points, [(8, 5)]),
                           (ii.points, [(8, 5), (ii.P, ii.Q)])):
        for p_num, q_den in thresholds + [(1, 1), (1, 2)]:
            assert critical_edges(ps, p_num, q_den) == brute_critical(
                ps, SqrtSum.rational(p_num), SqrtSum.rational(q_den))


def _float_detour(coords, u, w, v):
    return (dist(coords[u], coords[w]) + dist(coords[w], coords[v])) \
        / dist(coords[u], coords[v])


@pytest.mark.parametrize("offset", [0, 1 << 54])
def test_critical_scan_coarse_screens_are_sound(offset):
    # at 8 bits the enclosures are about 2^-7 wide, so a pair whose best
    # detour ratio sits within 2^-10 above an irrational d/l reaches both
    # integer screens; only outward rounding in both keeps such a pair
    # critical.  Floats pick the sets holding such a near tie; the check
    # itself is exact.
    rng = random.Random(71)
    checked = 0
    while checked < 24:
        n, coords = rng.randint(5, 7), set()
        while len(coords) < n:
            coords.add((rng.randint(-12, 12), rng.randint(-12, 12)))
        coords = sorted(coords)
        u, w, v = rng.sample(range(n), 3)
        ratio = _float_detour(coords, u, w, v)
        if not any(0 < min(_float_detour(coords, a, x, b) for x in range(n)
                           if x not in (a, b)) / ratio - 1 < 2 ** -10
                   for a, b in itertools.combinations(range(n), 2)):
            continue
        checked += 1
        ps = PointSet.from_coords([(x + offset, y + offset)
                                   for x, y in coords])
        d = _exact_dist(ps, u, w) + _exact_dist(ps, w, v)
        length = _exact_dist(ps, u, v)
        assert _critical_scan(ps, d, length, 8) \
            == brute_critical(ps, d, length)


def critical_scan_every_pair(ps, d, length, bits):
    """`_critical_scan` without its pair filter and detour window: every
    pair, and in each every w in index order, through the same detour
    tests, screen and exact sign."""
    ends = d.eval_interval(bits), length.eval_interval(bits)
    scale = lcm(*(x.denominator for iv in ends for x in (iv.lo, iv.hi)))
    (dlo, dhi), (llo, lhi) = ((int(iv.lo * scale), int(iv.hi * scale))
                              for iv in ends)
    short, far = 2 * lhi * lhi, 4 * llo * llo
    near_k, far_k = dlo * dlo, (llo + dhi) ** 2
    sq = [[ps._d2_num(u, v) for v in range(ps.n)] for u in range(ps.n)]
    tab, out = ps.table(bits), []
    for u, v in itertools.combinations(range(ps.n), 2):
        near, beyond = near_k * sq[u][v], far_k * sq[u][v]
        for w in range(ps.n):
            if w in (u, v):
                continue
            uw2, wv2 = sq[u][w], sq[v][w]
            if short * (uw2 + wv2) <= near:
                break
            if far * max(uw2, wv2) > beyond:
                continue
            uv_lo, uv_hi = tab[u][v] or ps.dist_ints(u, v, bits)
            uw_lo, uw_hi = tab[u][w] or ps.dist_ints(u, w, bits)
            wv_lo, wv_hi = tab[w][v] or ps.dist_ints(w, v, bits)
            if dhi * uv_hi < llo * (uw_lo + wv_lo):
                continue
            if dlo * uv_lo >= lhi * (uw_hi + wv_hi):
                break
            try:
                sign = dilation._ratio_sign(
                    (ps.exact_dist(u, w) + ps.exact_dist(w, v),
                     ps.exact_dist(u, v)), (d, length))
            except PrecisionExhausted as exc:
                raise PrecisionExhausted(
                    f"detour {(u, v, w)} undecided at {exc.bits} bits",
                    bits=exc.bits, context=(u, v, w)) from exc
            if sign <= 0:
                break
        else:
            out.append((u, v))
    return frozenset(out)


def _scan_outcome(scan, coords, den, d, length):
    """The critical set `scan` finds at 64 bits on a fresh point set, or
    the type, bits and context of what it raised, with its `dist_ints`
    count."""
    ps = PointSet.from_ints(coords, den)
    calls = []
    dist_ints = ps.dist_ints
    ps.dist_ints = lambda *args: calls.append(args) or dist_ints(*args)
    try:
        got = scan(ps, d, length, 64)
    except Exception as exc:
        got = (type(exc), getattr(exc, "bits", None),
               getattr(exc, "context", None))
    return got, len(calls)


def _scan_inputs():
    """Random sets, and lattice sets whose nearest neighbours tie, each
    plain, translated by 2^54, scaled by 2^-100, or both."""
    rng = random.Random(83)
    sets = []
    for _ in range(36):
        n, span, coords = rng.randint(3, 9), rng.choice([4, 12, 200]), set()
        while len(coords) < n:
            coords.add((rng.randint(-span, span), rng.randint(-span, span)))
        sets.append(sorted(coords))
    grid = [(x, y) for x in range(4) for y in range(4)]
    sets += [grid[:9], grid[::3], [(x, 0) for x in range(6)],
             [(2 * x + y % 2, y) for x in range(3) for y in range(3)]]
    sets += [sorted(rng.sample(grid, rng.randint(4, 9))) for _ in range(8)]
    for k, coords in enumerate(sets):
        off, den = (0, 1 << 54)[k % 2], (1, 1 << 100)[k // 2 % 2]
        yield [(x + off, y + off) for x, y in coords], den


@pytest.mark.parametrize("cap", [None, 128])
def test_critical_scan_filters_keep_every_answer_and_exception(
        cap, monkeypatch):
    # thresholds 3, 5 and 30, where a pair's nearest other vertex can be
    # its other end; 8/5 and 3/2; 1/1, 1/2 and 9/10, where the pair filter
    # is off; the exact detour ratio of a random triple, irrational; and
    # sqrt(5)/2 from below, too close for 128 bits at the detour 0-1-2
    if cap is None:
        monkeypatch.delenv("DILATREE_MAX_BITS", raising=False)
    else:
        monkeypatch.setenv("DILATREE_MAX_BITS", str(cap))
    rng = random.Random(89)
    rational = [(3, 1), (5, 1), (30, 1), (8, 5), (3, 2), (1, 1), (1, 2),
                (9, 10)]
    _, _, p, q = sqrt5_half_path()
    near_ties = [([(0, 0), (2 * k, k), (4 * k, 0), (9 * k, 7 * k),
                   (-5 * k, 6 * k)][:n], 1) for k in (1, 20) for n in (3, 5)]
    work, raised = [0, 0], 0
    for coords, den in list(_scan_inputs()) + near_ties:
        ps = PointSet.from_ints(coords, den)
        u, w, v = rng.sample(range(ps.n), 3)
        ratios = [(SqrtSum.rational(p_num), SqrtSum.rational(q_den))
                  for p_num, q_den in rational + [(p, q)]]
        ratios.append((ps.exact_dist(u, w) + ps.exact_dist(w, v),
                       ps.exact_dist(u, v)))
        for d, length in ratios:
            (got, calls), (want, ref_calls) = (
                _scan_outcome(scan, coords, den, d, length)
                for scan in (_critical_scan, critical_scan_every_pair))
            assert got == want, (coords, den, d, length)
            assert calls <= ref_calls
            work[0] += calls
            work[1] += ref_calls
            raised += isinstance(got, tuple)
    assert work[0] < work[1]
    # the four near-tie sets, and random sets with the same detour, raise
    assert raised == 0 if cap is None else raised >= 4


def test_critical_scan_pair_filter_settles_a_pair_left_undecided(
        monkeypatch):
    # (1, 1) lies so close to vertex 0 that the pair filter drops the pair
    # (0, 2) with no w; a scan of every w reaches the near tie of the
    # detour 0-1-2 first, which 128 bits cannot separate.  Without the
    # cap it settles, and both scans find the same set.
    _, _, p, q = sqrt5_half_path()
    coords = [(0, 0), (40, 20), (80, 0), (1, 1)]
    d, length = SqrtSum.rational(p), SqrtSum.rational(q)
    monkeypatch.setenv("DILATREE_MAX_BITS", "128")
    assert _scan_outcome(_critical_scan, coords, 1, d, length) == (
        {(0, 3), (1, 2)}, 0)
    assert _scan_outcome(critical_scan_every_pair, coords, 1, d,
                         length)[0] == (PrecisionExhausted, 128, (0, 2, 1))
    monkeypatch.delenv("DILATREE_MAX_BITS")
    assert _scan_outcome(critical_scan_every_pair, coords, 1, d,
                         length)[0] == {(0, 3), (1, 2)}


@pytest.mark.parametrize("p_num, q_den", [(3, 1), (5, 1), (30, 1)])
def test_critical_scan_matches_brute_force_at_wide_thresholds(p_num,
                                                              q_den):
    # pairs whose nearest other vertex is their other end, on lattice
    # sets with tied nearest neighbours and on random ones
    rng = random.Random(97)
    grid = [(x, y) for x in range(3) for y in range(3)]
    for trial in range(12):
        coords = sorted(rng.sample(grid, rng.randint(3, 6))) if trial % 2 \
            else sorted({(rng.randint(-9, 9), rng.randint(-9, 9))
                         for _ in range(6)})
        ps = PointSet.from_coords(coords)
        d, length = SqrtSum.rational(p_num), SqrtSum.rational(q_den)
        assert _critical_scan(ps, d, length, 64) == brute_critical(
            ps, d, length)


@pytest.mark.parametrize("alphas", [(1,), (1, 2), (2, 3, 5)])
def test_critical_scan_of_gadgets_matches_every_pair_scan(alphas):
    g = build_gadget(PartitionInstance(alphas))
    ii = integerize(g)
    for ps, (p, q) in ((g.points, (8, 5)), (ii.points, (ii.P, ii.Q))):
        d, length = SqrtSum.rational(p), SqrtSum.rational(q)
        assert _scan_outcome(_critical_scan, ps.numerators, ps.den, d,
                             length)[0] == _scan_outcome(
            critical_scan_every_pair, ps.numerators, ps.den, d, length)[0]


def random_pointset(rng, n, span=60):
    coords = set()
    while len(coords) < n:
        coords.add((rng.randint(-span, span), rng.randint(-span, span)))
    return PointSet.from_coords(sorted(coords))


def random_tree(rng, n):
    verts = list(range(n))
    rng.shuffle(verts)
    edges = []
    for i in range(1, n):
        edges.append((verts[i], verts[rng.randrange(i)]))
    return Tree(n, edges)


def test_critical_edge_necessity():
    # a tree omitting a critical edge at delta cannot have dilation <= delta
    rng = random.Random(11)
    for _ in range(10):
        ps = random_pointset(rng, 6)
        crit = critical_edges(ps, 8, 5)
        if not crit:
            continue
        e = min(crit)
        for _ in range(5):
            t = random_tree(rng, 6)
            if t.has_edge(*e):
                continue
            assert compare_to_threshold(ps, t, 8, 5) is Verdict.GREATER


def test_supergraph_never_certified_worse():
    rng = random.Random(23)
    for _ in range(15):
        ps = random_pointset(rng, 7)
        t = random_tree(rng, 7)
        rep = tree_dilation(ps, t, 64)
        extra = tuple(sorted(rng.sample(range(7), 2)))
        if t.has_edge(*extra):
            continue
        g = graph_dilation_bounds(ps, list(t.edges) + [extra], 64)
        assert not (g.lo > rep.value.hi)
        # and the graph bound must still enclose a value >= 1
        assert g.hi >= 1


def test_graph_bounds_match_tree_on_tree_edges():
    rng = random.Random(31)
    for _ in range(10):
        ps = random_pointset(rng, 6)
        t = random_tree(rng, 6)
        rep = tree_dilation(ps, t, 64)
        g = graph_dilation_bounds(ps, t.edges, 64)
        assert g.lo <= rep.value.hi and rep.value.lo <= g.hi


_OFF = 1 << 54


@pytest.mark.parametrize("coords, edges, bits, expect", [
    ([(0, 0), (3, 0), (3, 4)], [(0, 1), (1, 2)], 64, ("7/5", "7/5")),
    ([(0, 0), (1, 0), (1, 1), (0, 1)], [(0, 1), (1, 2), (2, 3), (0, 2)], 32,
     ("5184484147/2147483648", "1296121037/536870912")),
    ([(0, 0), (3, 1), (5, 4), (1, 6), (7, 7)],
     [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], 64,
     ("48675877770568274531/16627670405780314888",
      "48675877770568274534/16627670405780314887")),
    ([(x + _OFF, y + _OFF)
      for x, y in [(0, 0), (3, 1), (5, 4), (1, 6), (7, 7)]],
     [(0, 2), (1, 2), (2, 3), (3, 4), (0, 3)], 48,
     ("704297926724287/222525507687131", "70429792672429/22252550768713")),
])
def test_graph_bounds_pinned(coords, edges, bits, expect):
    # values recorded from the earlier Fraction-weighted Dijkstra
    g = graph_dilation_bounds(PointSet.from_coords(coords), edges, bits)
    assert (g.lo, g.hi, g.bits) == (Fraction(expect[0]), Fraction(expect[1]),
                                     bits)


def spanning_trees_within(n, edges):
    for subset in itertools.combinations(edges, n - 1):
        try:
            yield Tree(n, subset)
        except ValueError:
            continue


@pytest.mark.parametrize("offset", [0, _OFF])
def test_graph_exceeds_rejects_every_tree_inside(offset):
    rng = random.Random(43)
    q = 256
    thresholds = range(q, 4 * q, 3)
    certified = 0
    for _ in range(8):
        n = rng.choice((6, 7))
        ps = PointSet.from_coords((p.x + offset, p.y + offset)
                                  for p in random_pointset(rng, n).points)
        union = set(random_tree(rng, n).edges)
        size = n - 1 + rng.choice((1, 2))
        while len(union) < size:
            union.add(tuple(sorted(rng.sample(range(n), 2))))
        union = sorted(union)
        # runs sharing a first vertex, each pair (u, v) checked through
        # s = u
        triples = [(u, u, v) for u in rng.sample(range(n), 3)
                   for v in rng.sample([w for w in range(n) if w != u], 2)]
        top = {(u, v): max((p for p in thresholds
                            if graph_exceeds(ps, union, p, q,
                                                  [(s, u, v)])),
                           default=0) for s, u, v in triples}
        shown = [p for p in thresholds
                 if graph_exceeds(ps, union, p, q, triples)]
        assert shown == [p for p in thresholds if p <= max(top.values())]
        hi = graph_dilation_bounds(ps, union, 64).hi
        assert all(Fraction(p, q) < hi for p in shown)
        if not shown:
            continue
        certified += 1
        trees = list(spanning_trees_within(n, union))
        assert trees
        for tree in trees:
            assert compare_to_threshold(ps, tree, shown[-1], q) \
                is Verdict.GREATER
            for (u, v), p in top.items():
                if p:
                    enc = pair_dilation(ps, tree, u, v, 64)
                    assert enc.hi > Fraction(p, q)
    assert certified >= 4


def test_graph_exceeds_on_a_disconnected_graph():
    # no spanning tree lies inside, so every one is above any threshold,
    # even 1/0, under which no pair exceeds
    ps = PointSet.from_coords([(0, 0), (1, 0), (5, 5), (6, 5)])
    edges = [(0, 1), (2, 3)]
    assert graph_exceeds(ps, edges, 1000, 1, [(0, 0, 1)])
    assert graph_exceeds(ps, edges, 1, 0, [(2, 2, 3)])
    assert not graph_exceeds(ps, edges + [(1, 2)], 1000, 1,
                                  [(0, 0, 1), (2, 2, 3)])
    assert not graph_exceeds(ps, edges + [(1, 2)], 1, 0, [(0, 0, 3)])


def _apply(ps, f):
    return PointSet([f(p) for p in ps.points])


def test_similarity_invariance():
    rng = random.Random(47)
    ps = random_pointset(rng, 6)
    t = random_tree(rng, 6)
    base = tree_dilation(ps, t, 64)
    base_crit = critical_edges(ps, 8, 5)
    s = Fraction(7, 3)
    transforms = [
        lambda p: pt(s * p.x + 11, s * p.y - 4),          # scale + translate
        lambda p: pt(-p.y, p.x),                          # rotate 90
        lambda p: pt(-p.x, p.y),                          # mirror
    ]
    for f in transforms:
        ps2 = _apply(ps, f)
        rep = tree_dilation(ps2, t, 64)
        assert rep.value.lo <= base.value.hi and base.value.lo <= rep.value.hi
        assert rep.witness == base.witness and rep.tied == base.tied
        assert critical_edges(ps2, 8, 5) == base_crit
        assert compare_to_threshold(ps2, t, 5, 2) == compare_to_threshold(ps, t, 5, 2)


def test_tree_has_crossing():
    ps = PointSet([pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0), pt(3, 3)])
    crossing = Tree(5, [(0, 1), (2, 3), (1, 4), (0, 2)])
    assert tree_has_crossing(ps, crossing)
    flat = Tree(5, [(0, 1), (1, 4), (0, 2), (0, 3)])
    assert not tree_has_crossing(ps, flat)
    pairs = crossing_edge_pairs(ps, list(crossing.edges))
    assert ((0, 1), (2, 3)) in pairs


@pytest.mark.parametrize("den, offset", [(1, 0), (3, 0), (1 << 70, 0),
                                         (1, 1 << 60), (3, 1 << 60)])
def test_edges_cross_matches_segments_properly_cross(den, offset):
    # collinear runs on an axis, a column and a diagonal give overlapping,
    # nested, touching and vertex-sharing segments; the rest are random
    rng = random.Random(den % 1009 + offset % 1013)
    coords = [(0, 0), (1, 0), (2, 0), (3, 0), (0, 2), (0, 3), (1, 1), (2, 2),
              (3, 3)]
    while len(coords) < 13:
        p = (rng.randint(-4, 6), rng.randint(-4, 6))
        if p not in coords:
            coords.append(p)
    ps = PointSet([pt(Fraction(x, den) + offset, Fraction(y, den) + offset)
                   for x, y in coords])
    verdicts = set()
    for e, f in itertools.combinations(
            itertools.combinations(range(ps.n), 2), 2):
        expect = not set(e) & set(f) and segments_properly_cross(
            Segment(ps[e[0]], ps[e[1]]), Segment(ps[f[0]], ps[f[1]]))
        assert ps.edges_cross(e, f) is expect
        assert ps.edges_cross(f, e) is expect
        collinear = all(orientation(ps[e[0]], ps[e[1]], ps[w]) == 0
                        for w in f)
        verdicts.add((expect, collinear))
    # every kind of verdict occurs, collinear overlaps included
    assert verdicts == {(False, False), (True, False), (False, True),
                        (True, True)}
    assert crossing_edge_pairs(ps, [(0, 2), (1, 3), (4, 5)]) == [
        ((0, 2), (1, 3))]


def test_adjacent_edges_never_cross():
    ps = PointSet([pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)])
    t = Tree(4, [(0, 1), (0, 2), (0, 3)])
    assert not tree_has_crossing(ps, t)


def sqrt5_star():
    # the leaf pairs (1, 2) and (3, 4) both attain sqrt(5): a tie only the
    # exact fallback, from 256 bits on, can settle
    ps = PointSet.from_coords([(0, 0), (1, 2), (-1, 2), (1, -2), (-1, -2)])
    return ps, Tree(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


def test_precision_exhausted_surfaces(monkeypatch):
    ps, t = sqrt5_star()
    for cap in (64, 128):
        monkeypatch.setenv("DILATREE_MAX_BITS", str(cap))
        with pytest.raises(PrecisionExhausted) as info:
            tree_dilation(ps, t, 64)
        assert info.value.bits == cap
    monkeypatch.setenv("DILATREE_MAX_BITS", "256")
    rep = tree_dilation(ps, t, 64)
    assert (rep.tied, rep.witness, rep.precision_used) == (True, (1, 2), 256)
    monkeypatch.delenv("DILATREE_MAX_BITS")
    assert tree_dilation(ps, t, 64).precision_used == 272


def grid_comb():
    # 4x4 grid with step 3: a spine up the first column, a tooth per row
    ps = PointSet.from_coords([(3 * x, 3 * y)
                               for x in range(4) for y in range(4)])
    edges = [(y, y + 1) for y in range(3)]
    edges += [(4 * x + y, 4 * x + y + 4) for x in range(3) for y in range(4)]
    return ps, Tree(16, edges)


def collinear_chain():
    ps = PointSet.from_coords([(k, 2 * k) for k in (0, 1, 3, 4, 9)])
    return ps, Tree(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


def dyadic_rational():
    # denominator 2^70: distances from about 2^-66 up to about 3
    big = 1 << 70
    ps = PointSet.from_coords(
        [(Fraction(a, big), Fraction(b, big)) for a, b in
         [(0, 0), (5, 12), (big, 3), (3 * big // 2, big + 7),
          (-big // 2, 2 * big), (9, -40)]])
    return ps, Tree(6, [(0, 1), (0, 2), (2, 3), (2, 4), (1, 5)])


def mst20_at_2_60():
    rng = random.Random(20)
    coords = set()
    while len(coords) < 20:
        coords.add((rng.randint(0, 100), rng.randint(0, 100)))
    ps = PointSet.from_coords([(x + (1 << 60), y + (1 << 60))
                               for x, y in sorted(coords)])
    comp = list(range(20))
    edges = []
    for u, v in sorted(itertools.combinations(range(20), 2),
                       key=lambda e: (ps.distance_sq(*e), e)):
        cu, cv = comp[u], comp[v]
        if cu != cv:
            comp = [cu if c == cv else c for c in comp]
            edges.append((u, v))
    return ps, Tree(20, edges)


def prim_mst(n, offset=0):
    # Prim's tree of n random points in [0, 10^6]^2, seeded by n, over
    # exact squared distances, ties to the lower index
    rng = random.Random(n)
    coords = set()
    while len(coords) < n:
        coords.add((rng.randint(0, 10 ** 6), rng.randint(0, 10 ** 6)))
    ps = PointSet.from_coords([(x + offset, y + offset)
                               for x, y in sorted(coords)])
    best = {v: (ps.distance_sq(0, v), 0) for v in range(1, n)}
    edges = []
    while best:
        v = min(best, key=lambda w: (best[w], w))
        edges.append((best.pop(v)[1], v))
        for w in best:
            best[w] = min(best[w], (ps.distance_sq(v, w), v))
    return ps, Tree(n, edges)


def random_tree40():
    return random_tree_instance(random.Random(40), 40, 0)


@pytest.mark.parametrize("build, expect", [
    (sqrt5_star, (int("2714962312994339329268758480884221604143013268553418"
                      "29055970864250408765591889702142"), 2, (1, 2), True,
                  272)),
    (grid_comb, (7 << 276, 0, (12, 13), True, 272)),
    (collinear_chain, (1 << 72, 0, (0, 1), True, 68)),
    (dyadic_rational, (8017394746013931682658, 4, (1, 4), False, 68)),
    (mst20_at_2_60, (18298307499487237111374, 9, (13, 14), False, 68)),
    # recorded while every pair was still enclosed
    (partial(prim_mst, 200),
     (119227031529709113409163, 46, (129, 142), False, 68)),
    (partial(prim_mst, 200, 1 << 54),
     (119227031529709113409163, 46, (129, 142), False, 68)),
    (random_tree40, (630932071911783872475073, 273, (3, 5), False, 68)),
])
def test_tree_dilation_pinned_reports(build, expect):
    # recorded from the Fraction-interval kernel: the enclosure's lower
    # numerator and width on the grid 2^-(precision_used+4), the witness,
    # the tie flag and precision_used
    rep = tree_dilation(*build(), 64)
    grid = 1 << (rep.precision_used + 4)
    lo = rep.value.lo * grid
    assert lo.denominator == 1 and (rep.value.hi - rep.value.lo) * grid \
        == expect[1]
    assert (lo.numerator, expect[1], rep.witness, rep.tied,
            rep.precision_used) == expect


def test_tree_dilation_encloses_few_pairs_of_an_mst(monkeypatch):
    # path sums read only the n-1 tree edges, and a pair whose upper ratio
    # is certainly below the running maximum never has |uv| enclosed
    ps, tree = prim_mst(200)
    calls = []
    dist_ints = PointSet.dist_ints

    def counted(self, *args):
        calls.append(args)
        return dist_ints(self, *args)

    monkeypatch.setattr(PointSet, "dist_ints", counted)
    tree_dilation(ps, tree, 64)
    assert len(calls) == 224
    assert len(calls) < ps.n * (ps.n - 1) // 8


def compare_every_pair(ps, tree, p_num, q_den):
    """`compare_to_threshold` as a scan that encloses every pair: the
    verdict, and the pairs whose exact sign it takes, in order."""
    adj, undecided = tree.adjacency(), []
    for u in range(ps.n - 1):
        sums = root_sums(ps, adj, u, 64)
        for v in range(u + 1, ps.n):
            (dlo, dhi), (llo, lhi) = sums[v], ps.dist_ints(u, v, 64)
            if q_den * dlo > p_num * lhi:
                return Verdict.GREATER, []
            if q_den * dhi > p_num * llo:
                undecided.append((u, v))
    exact, signed = tree_exact(ps, tree), []
    for u, v in undecided:
        signed.append((u, v))
        d, length = exact(u, v)
        if (d.scale(q_den) - length.scale(p_num)).sign() > 0:
            return Verdict.GREATER, signed
    return Verdict.AT_MOST, signed


def threshold_cases(offset):
    """(points, tree, thresholds): random trees and MSTs against both
    ends of their 64-bit dilation enclosure and 1/8 to either side, and
    against dhi / (llo + 1) for the witness's 64-bit enclosures, which
    lies between dhi / |uv| and dhi / llo; a 200-point MST against the
    two ends of its enclosure."""
    rng = random.Random(offset % 1013 + 5)
    cases = [random_tree_instance(rng, n, offset) for n in (6, 12, 25)]
    cases += [prim_mst(n, offset) for n in (20, 40)]
    for ps, tree in cases:
        rep = tree_dilation(ps, tree, 64)
        u, v = rep.witness
        fresh = PointSet(ps.points)
        dhi = root_sums(fresh, tree.adjacency(), u, 64)[v][1]
        llo = fresh.dist_ints(u, v, 64)[0]
        yield ps, tree, sorted({max(end + shift, Fraction(1))
                                for end in (rep.value.lo, rep.value.hi)
                                for shift in (-Fraction(1, 8), 0,
                                              Fraction(1, 8))}
                               | {Fraction(dhi, llo + 1)})
    chain = PointSet.from_coords([(offset + k, offset + k)
                                  for k in (0, 4099, 8210)])
    yield chain, Tree(3, [(0, 1), (1, 2)]), [Fraction(1)]
    ps, tree = square_path()
    yield ps, tree, [Fraction(3)]
    ps, tree = prim_mst(200, offset)
    rep = tree_dilation(PointSet(ps.points), tree, 64)
    yield ps, tree, [rep.value.lo, rep.value.hi]


@pytest.mark.parametrize("offset", [0, 1 << 54, 1 << 60])
def test_compare_to_threshold_matches_a_scan_of_every_pair(offset,
                                                          monkeypatch):
    # the pairs compare_to_threshold leaves unenclosed change neither its
    # verdict nor the pairs it sends to the exact sign; exact ties (the
    # chain at 1, the square path at 3) and a threshold 2^-131 below
    # sqrt(5)/2 are among the inputs.  A straight tree, the chain, is
    # AT_MOST with no pair signed.
    signed = []

    def recording(ps, tree):
        exact = tree_exact(ps, tree)

        def record(u, v):
            signed.append((u, v))
            return exact(u, v)
        return record

    monkeypatch.setattr(dilation, "tree_exact", recording)
    near, near_tree, p, q = sqrt5_half_path()
    cases = [(near, near_tree, [Fraction(p, q)])]
    for ps, tree, thresholds in itertools.chain(cases,
                                                threshold_cases(offset)):
        for t in thresholds:
            signed.clear()
            got = compare_to_threshold(PointSet(ps.points), tree,
                                       t.numerator, t.denominator)
            verdict, expect = compare_every_pair(
                PointSet(ps.points), tree, t.numerator, t.denominator)
            if every_pair_straight(ps, tree):
                expect = []
            assert (got, signed) == (verdict, expect)


def test_compare_to_threshold_encloses_only_the_tree_edges_of_an_mst(
        monkeypatch):
    # the MST's dilation is about 25.2473: at the coarse threshold 101/4
    # above it, every pair but the 199 tree edges the path sums read is
    # settled by its squared distance, against 19,900 enclosed when every
    # pair was
    ps, tree = prim_mst(200)
    calls = []
    dist_ints = PointSet.dist_ints

    def counted(self, *args):
        calls.append(args)
        return dist_ints(self, *args)

    monkeypatch.setattr(PointSet, "dist_ints", counted)
    assert compare_to_threshold(ps, tree, 101, 4) is Verdict.AT_MOST
    assert len(calls) == 199
    assert len(calls) <= ps.n


def exact_kernel_trees(offset):
    rng = random.Random(offset % 1019 + 29)
    cases = [random_tree_instance(rng, n, offset) for n in (5, 9, 17, 30)]
    third = [(Fraction(rng.randint(0, 300), 3) + offset,
              Fraction(rng.randint(0, 300), 3)) for _ in range(12)]
    ps = PointSet.from_coords(sorted(set(third)))
    cases.append((ps, random_tree(rng, ps.n)))
    return rng, cases


@pytest.mark.parametrize("offset", [0, 1 << 54, 1 << 60])
def test_tree_exact_matches_independent_path_sums(offset):
    # pairs in shuffled order, both orientations: a query may reuse a
    # memoised sum, walk part of the way or start a fresh root
    rng, cases = exact_kernel_trees(offset)
    for ps, tree in cases:
        pairs = [(u, v) for u in range(ps.n) for v in range(ps.n) if u != v]
        rng.shuffle(pairs)
        exact = tree_exact(ps, tree)
        for u, v in pairs[:300]:
            expect = SqrtSum.zero()
            for a, b in tree.path_edges(u, v):
                expect = expect + SqrtSum.sqrt_of(ps.distance_sq(a, b))
            d, length = exact(u, v)
            assert d == expect
            assert length == SqrtSum.sqrt_of(ps.distance_sq(u, v))


def tiny_triangle(exp):
    s = Fraction(1, 1 << exp)
    return (PointSet.from_coords([(0, 0), (3 * s, 4 * s), (6 * s, 0)]),
            Tree(3, [(0, 1), (1, 2)]))


def test_tiny_scale_distances_stay_certified():
    # |uv| = 5 * 2^-100 is enclosed in the unit 2^-(bits+8) * 2^-100, so it
    # keeps its relative precision, and so does its absolute path length
    ps, t = tiny_triangle(100)
    rep = tree_dilation(ps, t, 64)
    assert rep.witness == (0, 2) and rep.value.contains(Fraction(5, 3))
    assert not rep.tied
    enc = tree_path_length(ps, t, 0, 2, 64)
    assert enc.contains(Fraction(10, 1 << 100))
    assert enc.width <= enc.lo / (1 << 60)
    # the best tree and path is t, and the tour is the whole triangle
    for mode, value in ((Mode.TREE, Fraction(5, 3)),
                        (Mode.PATH, Fraction(5, 3)), (Mode.TOUR, 1)):
        res = mdst_exact(ps, SolverOptions(mode=mode))
        assert res.report.value.contains(value)
    assert mdst_exact(ps).best == t
    ps70, t70 = tiny_triangle(70)
    assert pair_dilation(ps70, t70, 0, 2, 16).contains(Fraction(5, 3))


def test_graph_bounds_on_tiny_scale():
    # the enclosures share one unit relative to the set's denominator, so
    # a set scaled by 2^-100 is bounded as tightly as at scale 1
    for exp in (0, 100):
        ps, t = tiny_triangle(exp)
        iv = graph_dilation_bounds(ps, list(t.edges), 64)
        assert iv.contains(Fraction(5, 3))
        assert iv.hi - iv.lo < Fraction(1, 1 << 60)


def scaled_outputs(coords, edges, scale, shift):
    ps = PointSet.from_coords([(x * scale + shift, y * scale)
                               for x, y in coords])
    searches = []
    for mode in Mode:
        res = mdst_exact(ps, SolverOptions(mode=mode))
        searches.append((res.best, res.report, res.trees_examined,
                         res.pruned))
    return (tree_dilation(ps, Tree(ps.n, edges), 64),
            critical_edges(ps, 3, 2), searches)


def test_outputs_are_scale_invariant():
    # dilation is a ratio: scaling a set, and shifting it, must give the
    # same reports, forced edges and searches, down to the enclosures and
    # counts.  The coordinates have no common factor, so each scaled set
    # keeps them as its numerators.
    rng = random.Random(12)
    sets = 0
    while sets < 12:
        n = rng.randint(4, 8)
        coords = sorted({(rng.randint(0, 60), rng.randint(0, 60))
                         for _ in range(n)})
        if len(coords) < 4 or gcd(*itertools.chain(*coords)) != 1:
            continue
        sets += 1
        edges = random_tree(rng, len(coords)).edges
        base = scaled_outputs(coords, edges, 1, 0)
        for scale, shift in ((Fraction(1, 1 << 100), 0),
                             (Fraction(1, 3), 1 << 54),
                             (Fraction(1, 10 ** 9 + 7), 0)):
            assert scaled_outputs(coords, edges, scale, shift) == base


def sqrt5_half_path():
    # the pair (0, 2) of this path has dilation 2 sqrt(5) / 4 = sqrt(5)/2,
    # as has the detour 0 - 1 - 2 against |02|; P/Q lies 2^-131 or less
    # below it, too close to separate at 128 bits
    ps = PointSet.from_coords([(0, 0), (2, 1), (4, 0)])
    return ps, Tree(3, [(0, 1), (1, 2)]), isqrt(5 << 260), 1 << 131


def test_compare_to_threshold_names_undecided_pair(monkeypatch):
    ps, t, p, q = sqrt5_half_path()
    monkeypatch.setenv("DILATREE_MAX_BITS", "128")
    with pytest.raises(PrecisionExhausted) as info:
        compare_to_threshold(ps, t, p, q)
    assert info.value.context == (0, 2)
    assert info.value.bits == 128
    assert f"pair (0, 2) against {p}/{q}" in str(info.value)
    assert isinstance(info.value.__cause__, PrecisionExhausted)
    monkeypatch.delenv("DILATREE_MAX_BITS")
    assert compare_to_threshold(ps, t, p, q) is Verdict.GREATER


def test_compare_to_threshold_keeps_below_the_ceiling(monkeypatch):
    # the exact sign starts at 128 bits, but never above the ceiling
    ps, t, p, q = sqrt5_half_path()
    monkeypatch.setenv("DILATREE_MAX_BITS", "64")
    with pytest.raises(PrecisionExhausted) as info:
        compare_to_threshold(ps, t, p, q)
    assert info.value.context == (0, 2)
    assert info.value.bits == 64


def test_critical_scan_names_undecided_triple(monkeypatch):
    ps, _, p, q = sqrt5_half_path()
    monkeypatch.setenv("DILATREE_MAX_BITS", "128")
    with pytest.raises(PrecisionExhausted) as info:
        critical_edges(ps, p, q)
    assert info.value.context == (0, 2, 1)
    assert info.value.bits == 128
    assert f"detour (0, 2, 1) against SqrtSum({p})/SqrtSum({q})" \
        in str(info.value)
    assert isinstance(info.value.__cause__, PrecisionExhausted)
    monkeypatch.delenv("DILATREE_MAX_BITS")
    assert critical_edges(ps, p, q) == {(0, 1), (0, 2), (1, 2)}


def test_precision_exhausted_names_survivors(monkeypatch):
    ps, t = sqrt5_star()
    monkeypatch.setenv("DILATREE_MAX_BITS", "64")
    with pytest.raises(PrecisionExhausted) as info:
        tree_dilation(ps, t, 64)
    assert info.value.bits == 64
    assert info.value.context == [(1, 2), (3, 4)]
    assert "among 2 pairs, first (1, 2), (3, 4)" in str(info.value)
    # on a zigzag the nine pairs two, four or six steps apart tie at
    # sqrt(2): four are named, all are carried
    ps = PointSet.from_coords([(i, i % 2) for i in range(7)])
    t = Tree(7, [(i, i + 1) for i in range(6)])
    monkeypatch.setenv("DILATREE_MAX_BITS", "128")
    with pytest.raises(PrecisionExhausted) as info:
        tree_dilation(ps, t, 64)
    assert info.value.context == [(u, v) for u, v in itertools.combinations(
        range(7), 2) if (v - u) % 2 == 0]
    assert str(info.value).endswith("among 9 pairs, first (0, 2), (0, 4), "
                                    "(0, 6), (1, 3)")


def long_chain():
    """30 points on the line y = 2x at random gaps, joined in order."""
    rng = random.Random(3)
    k, coords = 0, []
    for _ in range(30):
        coords.append((k, 2 * k))
        k += rng.randrange(1, 1 << 14)
    return PointSet.from_coords(coords), Tree(30, [(i, i + 1)
                                                   for i in range(29)])


def test_chain_tie_builds_no_exact_length(monkeypatch):
    # every pair of a collinear chain ties at 1, and the tree is straight:
    # all 435 pairs tie at the first rung with no |uv| built
    ps, t = long_chain()
    calls = []
    sqrt_of = SqrtSum.__dict__["sqrt_of"].__func__
    monkeypatch.setattr(SqrtSum, "sqrt_of", classmethod(
        lambda cls, *a, **kw: calls.append(1) or sqrt_of(cls, *a, **kw)))
    rep = tree_dilation(ps, t, 64)
    assert (rep.tied, rep.witness, rep.precision_used) == (True, (0, 1), 68)
    assert rep.value.lo == rep.value.hi == 1
    assert calls == []


# ---------------------------------------------------------------------------
# straight trees: a reference copy of the exact side and of the max over
# pairs, and the inputs where some or all paths are straight


def reference_tree_exact(ps, tree):
    rows = {}

    def exact(u, v):
        row = rows.setdefault(u, {u: SqrtSum.zero()})
        par, walk, x = tree.parents_from(u), [], v
        while x not in row:
            walk.append(x)
            x = par[x]
        for y in reversed(walk):
            row[y] = row[x] + ps.exact_dist(x, y)
            x = y
        return row[v], ps.exact_dist(u, v)

    return exact


def reference_ratio_sign(a, b):
    (da, la), (db, lb) = a, b
    return (da * lb - db * la).sign()


def reference_pair_ratios(ps, sums, pairs, bits):
    """`_pair_ratios` as it ran before the tree scans read every pair
    once: one `sums(u, bits + 4)` row per first vertex, pairs in sorted
    order."""
    f = bits + 4
    tab, d2_num = ps.table(f), ps._d2_num
    margin = ((1 << (f - 2)) - 1) << 16
    enc = {}
    best, cut = 0, -1
    root = row = lens = None
    for u, v in sorted(pairs):
        if u != root:
            root, row, lens = u, sums(u, f), tab[u]
        dlo, dhi = row[v]
        length = lens[v]
        if length is None:
            if (dhi * dhi) << (f - 2) <= cut * d2_num(u, v):
                continue
            length = ps.dist_ints(u, v, f)
        llo, lhi = length
        lo = (dlo << f) // lhi
        enc[u, v] = lo, -((-dhi << f) // llo)
        if lo > best:
            best, cut = lo, (lo - 1) ** 2 * margin
    return enc


def reference_max_dilation(ps, sums, exact, bits):
    """`_max_dilation` over `reference_pair_ratios`: every rung is
    computed and every exact comparison is a product."""
    if bits < 1:
        raise ValueError("bits must be positive")
    cap = dilation.max_bits_cap()
    work = max(bits + 4, 64)
    enc = reference_pair_ratios(ps, sums,
                                itertools.combinations(range(ps.n), 2), work)
    tied = False
    while True:
        lo = max(e[0] for e in enc.values())
        survivors = {pq: e for pq, e in enc.items() if e[1] >= lo}
        hi = max(e[1] for e in survivors.values())
        if len(survivors) == 1:
            break
        cause = None
        if (hi - lo) << (bits - 1) <= hi \
                and work >= dilation._EXACT_FALLBACK_BITS:
            order = sorted(survivors)
            best = [order[0]]
            try:
                top = exact(*order[0])
                for pq in order[1:]:
                    cand = exact(*pq)
                    sign = reference_ratio_sign(cand, top)
                    if sign > 0:
                        best, top = [pq], cand
                    elif sign == 0:
                        best.append(pq)
            except PrecisionExhausted as exc:
                cause = exc
            else:
                tied = len(best) > 1
                survivors = best
                break
        if work >= cap:
            pairs = sorted(survivors)
            raise PrecisionExhausted(
                f"dilation witnesses unresolved at {cap} bits among "
                f"{len(pairs)} pairs, first {str(pairs[:4])[1:-1]}",
                bits=cap, context=pairs) from cause
        work = min(2 * work, cap)
        enc = reference_pair_ratios(ps, sums, survivors, work)
    return DilationReport(value=dilation._dyadic(lo, hi, work + 4, bits),
                          witness=min(survivors), precision_used=work,
                          tied=tied)


def reference_tree_dilation(ps, tree, bits):
    return reference_max_dilation(ps, partial(root_sums, ps,
                                              tree.adjacency()),
                                  reference_tree_exact(ps, tree), bits)


def dilation_outcome(run, coords, tree, bits):
    """The report's repr, or the exception's message, bits and context,
    on a fresh point set."""
    try:
        return repr(run(PointSet.from_coords(coords), tree, bits))
    except PrecisionExhausted as exc:
        return str(exc), exc.bits, exc.context


def straight_tie_cases():
    """(coords, tree) on collinear and lattice points, where some or all
    tree paths are straight."""
    rng = random.Random(29)
    for n, (dx, dy) in zip((3, 4, 6, 8, 11),
                           [(1, 0), (1, 2), (3, -1), (0, 1), (2, 5)]):
        ks = rng.sample(range(-60, 60), n)
        line = [(Fraction(k * dx, 3), k * dy) for k in ks]
        # collinear points, random trees
        for _ in range(2):
            yield line, random_tree(rng, n)
        # a sorted path under shuffled labels
        order = sorted(range(n), key=ks.__getitem__)
        yield line, Tree(n, list(zip(order, order[1:])))
        # one point off the line, next to it or far out
        for off in (Fraction(1, 3), 40):
            yield line + [(line[0][0] + off, line[0][1])], \
                random_tree(rng, n + 1)
    lattice = [(3 * x, 3 * y) for x in range(4) for y in range(4)]
    for _ in range(6):
        yield lattice, random_tree(rng, 16)


def every_pair_straight(ps, tree):
    """Brute force: every pair's exact path length equals its |uv|."""
    exact = tree_exact(PointSet(ps.points), tree)
    return all(d == length for d, length in itertools.starmap(
        exact, itertools.combinations(range(ps.n), 2)))


def straight_chains():
    """(coords, tree): `long_chain()` at offsets 0 and 2^54, at scale
    2^-100, rotated by a Pythagorean angle and under shuffled labels,
    every tree straight; and a 2-point tree."""
    ps, chain = long_chain()
    coords, n = [(p.x, p.y) for p in ps.points], ps.n
    for offset in (0, 1 << 54):
        yield [(x + offset, y + offset) for x, y in coords], chain
    tiny = Fraction(1, 1 << 100)
    yield [(x * tiny, y * tiny) for x, y in coords], chain
    yield [((3 * x - 4 * y) / 5, (4 * x + 3 * y) / 5) for x, y in coords], \
        chain
    labels = list(range(n))
    random.Random(35).shuffle(labels)
    shuffled = [None] * n
    for k, label in enumerate(labels):
        shuffled[label] = coords[k]
    yield shuffled, Tree(n, list(zip(labels, labels[1:])))
    yield [(0, 0), (3, 4)], Tree(2, [(0, 1)])


def straight_tree_cases():
    """(coords, tree): the straight ties and chains; `long_chain()` doubled
    back once, forked with both branches going on from the stem, one unit
    off its line at offsets 0 and 2^54, and its star."""
    yield from straight_tie_cases()
    yield from straight_chains()
    ps, chain = long_chain()
    coords, n = [(p.x, p.y) for p in ps.points], ps.n
    back = list(range(15)) + list(range(29, 14, -1))
    yield coords, Tree(n, list(zip(back, back[1:])))
    yield coords, Tree(n, [(i, i + 1) for i in range(28)] + [(27, 29)])
    for offset in (0, 1 << 54):
        moved = [(x + offset, y + offset) for x, y in coords]
        moved[10] = (moved[10][0] + 1, moved[10][1])
        yield moved, chain
    yield coords, Tree(n, [(15, v) for v in range(n) if v != 15])


def test_straight_tree_matches_every_pair_being_straight():
    # the O(n) test agrees with the pairs, and holds exactly when the
    # dilation is 1
    kinds = set()
    for coords, tree in straight_tree_cases():
        ps = PointSet.from_coords(coords)
        straight = _straight_tree(ps, tree)
        assert straight == every_pair_straight(ps, tree)
        assert (tree_dilation(ps, tree, 64).value.lo > 1) != straight
        kinds.add(straight)
    assert kinds == {True, False}


def exactly_one(n, bits):
    """The report of a straight tree on n points at `bits`."""
    return DilationReport(value=Interval(Fraction(1), Fraction(1), bits),
                          witness=(0, 1), precision_used=max(bits + 4, 64),
                          tied=n > 2)


def set_cap(monkeypatch, cap):
    if cap is None:
        monkeypatch.delenv("DILATREE_MAX_BITS", raising=False)
    else:
        monkeypatch.setenv("DILATREE_MAX_BITS", str(cap))


@pytest.mark.parametrize("cap", [64, 128, 200, 256, None])
def test_straight_paths_keep_every_report_and_exception(cap, monkeypatch):
    # a straight tree reports exactly 1 at every cap; every other tree on
    # these inputs keeps the report or PrecisionExhausted of the reference
    # max over pairs, and caps below 256 raise on some of their ties
    set_cap(monkeypatch, cap)
    kinds = set()
    ps, mst = prim_mst(200)
    mst_case = [(p.x, p.y) for p in ps.points], mst
    for coords, tree in itertools.chain(straight_tie_cases(), [mst_case]):
        straight = _straight_tree(PointSet.from_coords(coords), tree)
        for bits in (1, 64, 100, 300):
            got = dilation_outcome(tree_dilation, coords, tree, bits)
            if straight:
                assert got == repr(exactly_one(len(coords), bits))
            else:
                assert got == dilation_outcome(reference_tree_dilation,
                                               coords, tree, bits)
            kinds.add((straight, type(got)))
    assert kinds == {(True, str), (False, str)} | (
        set() if cap is None or cap >= 256 else {(False, tuple)})


@pytest.mark.parametrize("cap", [64, 128, 200, 256, None])
def test_straight_tree_reports_exactly_one(cap, monkeypatch):
    # [1, 1], witness (0, 1), tied iff there is more than one pair, at the
    # first rung's precision: no pair enclosed and no table built
    set_cap(monkeypatch, cap)
    calls = []
    dist_ints = PointSet.dist_ints
    monkeypatch.setattr(PointSet, "dist_ints", lambda self, *args:
                        calls.append(args) or dist_ints(self, *args))
    for coords, tree in straight_chains():
        for bits in (1, 64, 100, 300):
            ps = PointSet.from_coords(coords)
            assert tree_dilation(ps, tree, bits) == exactly_one(ps.n, bits)
            assert ps._tables == {}
    assert calls == []
    ps, chain = long_chain()
    with pytest.raises(ValueError, match="bits must be positive"):
        tree_dilation(ps, chain, 0)


def test_chain_tie_keeps_no_product_and_no_table(monkeypatch):
    # every pair of the chain is straight: no SqrtSum product and no
    # enclosure table
    ps, t = long_chain()
    products = []
    mul = SqrtSum.__mul__
    monkeypatch.setattr(SqrtSum, "__mul__", lambda a, b: products.append(1)
                        or mul(a, b))
    assert tree_dilation(ps, t, 64) == exactly_one(30, 64)
    assert products == []
    assert ps._tables == {}


def test_star_on_a_line_keeps_its_back_tracking_pairs():
    # centred mid-chain, a star's pairs on opposite sides are straight and
    # those on one side double back, above 1: they decide the maximum
    ps, _ = long_chain()
    star = Tree(30, [(15, v) for v in range(30) if v != 15])
    rep = tree_dilation(ps, star, 64)
    assert rep == reference_tree_dilation(PointSet(ps.points), star, 64)
    assert rep.value.lo > 1 and not rep.tied
    exact = tree_exact(ps, star)
    d, length = exact(*rep.witness)
    assert d != length
    assert all(d == length for d, length in (exact(u, v) for u in range(15)
                                             for v in range(16, 30)))
    # a straight pair against a back-tracking one is still a product
    bent, line, other = exact(*rep.witness), exact(0, 29), exact(3, 20)
    assert (dilation._ratio_sign(line, bent), dilation._ratio_sign(bent, line),
            dilation._ratio_sign(line, other)) == (-1, 1, 0)
