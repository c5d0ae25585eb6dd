"""Tree/path/tour search, uncrossing exchange, and witness hunt."""

import copy
import heapq
import itertools
import os
import pathlib
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from dilatree import solver
from dilatree.dilation import (PointSet, Tree, crossing_edge_pairs,
                               graph_dilation_bounds, tree_dilation,
                               tree_exact, tree_has_crossing)
from dilatree.errors import (Infeasible, NotApplicable, NotCrossing,
                             PrecisionExhausted, SizeTooLarge)
from dilatree.solver import (Mode, SolverOptions, SolverResult,
                             critical_path_structure, enumerate_spanning_trees,
                             exhaustive_mdst, mdst_exact, uncross_four,
                             verify_crossing_witness, witness_search_five,
                             _RunningScreen, _compare_exact,
                             _order_metric, _prufer_code, _prufer_edges,
                             _screen_every_tree)
from dilatree.radical import SqrtSum

from conftest import graph_exceeds

ROOT = pathlib.Path(__file__).resolve().parents[1]
SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]

# found by witness_search_five and locked in; every optimal spanning tree
# of this set has an edge crossing
WITNESS5 = [(-53, -12), (0, 0), (2, -9), (3, -7), (63, -283)]


def _compare_reports(ps, tree_a, rep_a, tree_b, rep_b):
    """Certified sign of Delta(tree_a) - Delta(tree_b)."""
    return _compare_exact(rep_a, tree_exact(ps, tree_a),
                          rep_b, tree_exact(ps, tree_b))


def random_distinct_points(rng, n, lo=0, hi=64):
    while True:
        pts = [(rng.randint(lo, hi), rng.randint(lo, hi)) for _ in range(n)]
        if len(set(pts)) == n:
            return pts


# ---------------------------------------------------------------------------
# enumeration


def test_tree_counts_match_cayley():
    for n in range(2, 7):
        assert sum(1 for _ in enumerate_spanning_trees(n)) == n ** (n - 2)


def test_enumerated_trees_distinct():
    seen = set(t.edges for t in enumerate_spanning_trees(5))
    assert len(seen) == 125


def heap_prufer_edges(n, seq):
    """The edge set of Prüfer sequence `seq`, removing the smallest leaf
    from a heap at each step."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = set()
    for x in seq:
        edges.add(tuple(sorted((heapq.heappop(leaves), x))))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.add(tuple(sorted(leaves)))
    return edges


def test_prufer_decode_attaches_one_leaf_at_a_time():
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            edges = _prufer_edges(n, seq)
            placed = set(edges[0])
            for leaf, anchor in edges[1:]:
                assert anchor in placed and leaf not in placed
                placed.add(leaf)
            assert {tuple(sorted(e)) for e in edges} == \
                heap_prufer_edges(n, seq)


def test_prufer_code_inverts_the_decode():
    for n in range(2, 8):
        for seq in itertools.product(range(n), repeat=n - 2):
            parent = [None] * (n - 1)
            for leaf, anchor in _prufer_edges(n, seq):
                parent[leaf] = anchor
            assert _prufer_code(parent) == seq


class _FixedLimitScreen(_RunningScreen):
    """A screen whose limit stays `fixed` (None: no incumbent) and which
    keeps every tree offered to it as a survivor."""

    def __init__(self, ps):
        super().__init__(ps)
        self.fixed, self.offered = None, []

    def limit(self):
        return self.fixed

    def offer(self, key, sums):
        self.count += 1
        self.offered.append(key)

    def survivors(self):
        return self.offered


def test_oracle_offers_every_tree_once_without_incumbent():
    rng = random.Random(29)
    for n in range(2, 8):
        ps = PointSet.from_coords(random_distinct_points(rng, n))
        screen = _FixedLimitScreen(ps)
        survivors = _screen_every_tree(ps, screen)
        # each tree offered once, by its Prüfer code ...
        assert screen.count == n ** (n - 2)
        assert sorted(screen.offered) == \
            list(itertools.product(range(n), repeat=n - 2))
        # ... and handed back in Prüfer order
        assert [Tree(n, edges).edges for edges in survivors] == \
            [t.edges for t in enumerate_spanning_trees(n)]


@pytest.mark.parametrize("ratio", [Fraction(6, 5), Fraction(3, 2), 2, 3])
def test_oracle_counts_every_tree_below_a_refused_pick(ratio):
    # with a fixed limit, picks are refused at every depth; the trees
    # offered are exactly those whose every pair stays within the limit
    rng = random.Random(31)
    for n in range(3, 7):
        ps = PointSet.from_coords(random_distinct_points(rng, n))
        screen = _FixedLimitScreen(ps)
        lens = screen.lens
        limit = screen.fixed = [[int(ratio * hi) for _, hi in row]
                                for row in lens]
        survivors = _screen_every_tree(ps, screen)
        within = [t.edges for t in enumerate_spanning_trees(n) if all(
            sum(lens[a][b][0] for a, b in t.path_edges(u, v)) <= limit[u][v]
            for u, v in itertools.combinations(range(n), 2))]
        assert [Tree(n, edges).edges for edges in survivors] == within


def test_enumeration_guard():
    with pytest.raises(SizeTooLarge):
        list(enumerate_spanning_trees(10))
    with pytest.raises(ValueError):
        list(enumerate_spanning_trees(1))


def test_two_point_tree():
    trees = list(enumerate_spanning_trees(2))
    assert trees == [Tree(2, [(0, 1)])]


# ---------------------------------------------------------------------------
# exact MDST


def test_mdst_collinear_is_path():
    ps = PointSet.from_coords([(0, 0), (1, 0), (3, 0)])
    res = mdst_exact(ps)
    assert res.best.edges == ((0, 1), (1, 2))
    assert res.report.value.lo == 1 and res.report.value.hi == 1


def test_mdst_square_matches_oracle():
    ps = PointSet.from_coords(SQUARE)
    res = mdst_exact(ps)
    oracle = exhaustive_mdst(ps)
    assert oracle.trees_examined == 16
    assert res.best == oracle.best
    # the optimum is a star; its value is 1 + sqrt(2)
    lo, hi = res.report.value.lo, res.report.value.hi
    assert (lo - 1) ** 2 <= 2 <= (hi - 1) ** 2


def test_exhaustive_mdst_edge_sizes():
    res = exhaustive_mdst(PointSet.from_coords([(0, 0), (3, 4)]))
    assert res.best.edges == ((0, 1),)
    assert (res.trees_examined, res.pruned) == (1, 0)
    with pytest.raises(ValueError):
        exhaustive_mdst(PointSet.from_coords([(0, 0)]))


@pytest.mark.parametrize("ceiling", [64, 128])
def test_every_search_keeps_to_the_precision_ceiling(ceiling, monkeypatch):
    # the leaf pairs (1, 2) and (3, 4) of this star tie at sqrt(5), so each
    # search meets a tie that only the exact fallback, from 256 bits on,
    # settles; below that every search stops at the ceiling
    ps = PointSet.from_coords([(0, 0), (1, 2), (-1, 2), (1, -2), (-1, -2)])
    monkeypatch.setenv("DILATREE_MAX_BITS", str(ceiling))
    for search, context in [
            (lambda: exhaustive_mdst(ps), [(0, 2), (0, 3), (2, 3)]),
            (lambda: mdst_exact(ps), [(0, 2), (0, 3), (2, 3)]),
            (lambda: mdst_exact(ps, SolverOptions(mode=Mode.PATH)),
             [(0, 1), (0, 4), (1, 4)]),
            (lambda: mdst_exact(ps, SolverOptions(mode=Mode.TOUR)),
             [(0, 2), (0, 3)])]:
        with pytest.raises(PrecisionExhausted) as info:
            search()
        assert info.value.bits == ceiling
        assert info.value.context == context


def test_mdst_matches_oracle_random_sets():
    rng = random.Random(20240818)
    for _ in range(10):
        n = rng.choice((5, 5, 6))
        ps = PointSet.from_coords(random_distinct_points(rng, n))
        res = mdst_exact(ps)
        oracle = exhaustive_mdst(ps)
        sign = _compare_reports(ps, res.best, res.report,
                                oracle.best, oracle.report)
        assert sign == 0
        assert res.trees_examined <= n ** (n - 2)


# exhaustive_mdst outputs recorded before its screen ran against a running
# incumbent: best tree, witness, precision, tie flag, counts, and the
# enclosure as (lo numerator, lo exponent, hi numerator, hi exponent)
EXHAUSTIVE_PINS = [
    (SQUARE, ((0, 1), (0, 2), (0, 3)), (1, 2), 272, True, 16, 8,
     (18320381198483092318366819162170796570593515903918213573057006220700984226932758009, 272,
      146563049587864738546934553297366372564748127231345708584456049765607873815462064073, 275)),
    ([(0, 0), (5, 1), (9, 4), (3, 7), (12, 9), (7, 12)],
     ((0, 1), (1, 2), (2, 3), (2, 4), (2, 5)), (4, 5), 68, False, 1296, 1294,
     (712550075590001856651, 68, 11400801209440029706423, 72)),
    ([(2, 3), (11, 0), (14, 8), (6, 13), (0, 9), (8, 6)],
     ((0, 4), (1, 5), (2, 5), (3, 5), (4, 5)), (0, 1), 68, False, 1296, 1295,
     (10740505561833698266239, 72, 2685126390458424566561, 70)),
    ([(x + 2 ** 54, y + 2 ** 54) for x, y in
      [(1, 1), (4, 9), (10, 2), (13, 11), (7, 6), (3, 14)]],
     ((0, 4), (1, 4), (1, 5), (2, 4), (3, 4)), (3, 5), 68, False, 1296, 1295,
     (7758163445624473870195, 72, 3879081722812236935099, 71)),
]


# the same, recorded on two lattice sets whose many exact ties make the
# survivors' order decide the answer: eight of the 3x3 unit grid's points
# (7 survivors) and the 2x3 grid (14 survivors)
EXHAUSTIVE_TIE_PINS = [
    ([(x, y) for x in range(3) for y in range(3)][:8],
     ((0, 4), (1, 2), (1, 4), (1, 5), (3, 4), (4, 6), (4, 7)), (0, 1), 272,
     True, 262144, 262137,
     (18320381198483092318366819162170796570593515903918213573057006220700984226932758009, 272,
      293126099175729477093869106594732745129496254462691417168912099531215747630924128147, 276)),
    ([(x, y) for x in range(2) for y in range(3)],
     ((0, 3), (0, 4), (1, 2), (1, 4), (1, 5)), (0, 1), 272, True, 1296, 1282,
     (18320381198483092318366819162170796570593515903918213573057006220700984226932758009, 272,
      293126099175729477093869106594732745129496254462691417168912099531215747630924128147, 276)),
]


@pytest.mark.parametrize("pin", EXHAUSTIVE_PINS + EXHAUSTIVE_TIE_PINS,
                         ids=["square", "a", "b", "c", "grid3x3_8", "grid2x3"])
def test_exhaustive_mdst_pinned(pin):
    coords, edges, witness, precision, tied, examined, pruned, value = pin
    res = exhaustive_mdst(PointSet.from_coords(coords))
    assert res.best.edges == edges
    assert res.report.witness == witness
    assert res.report.precision_used == precision
    assert res.report.tied is tied
    assert (res.trees_examined, res.pruned) == (examined, pruned)
    lo_num, lo_exp, hi_num, hi_exp = value
    assert res.report.value.lo == Fraction(lo_num, 1 << lo_exp)
    assert res.report.value.hi == Fraction(hi_num, 1 << hi_exp)
    assert res.report.value.bits == 64


def test_exhaustive_mdst_matches_brute_force():
    # score all 125 trees fully and keep the first certified minimum
    for offset in (0, 2 ** 54):
        ps = PointSet.from_coords([(x + offset, y + offset) for x, y in
                                   [(0, 0), (3, 1), (5, 4), (1, 6), (7, 7)]])
        best = rep = None
        for tree in enumerate_spanning_trees(5):
            r = tree_dilation(ps, tree, 64)
            if rep is None or _compare_reports(ps, tree, r, best, rep) < 0:
                best, rep = tree, r
        res = exhaustive_mdst(ps)
        assert res.best == best
        assert res.report == rep
        assert res.trees_examined == 125


def test_mdst_required_edges_respected():
    ps = PointSet.from_coords(SQUARE)
    # force the 0-2 diagonal, which no unconstrained optimum uses
    opts = SolverOptions(required_edges=frozenset({(0, 2)}))
    res = mdst_exact(ps, opts)
    assert (0, 2) in res.best.edges
    free = mdst_exact(ps)
    assert res.report.value.hi >= free.report.value.lo


def test_mdst_required_cycle_rejected():
    ps = PointSet.from_coords(SQUARE)
    opts = SolverOptions(required_edges=frozenset({(0, 1), (1, 2), (0, 2)}))
    with pytest.raises(ValueError, match="required_edges contain a cycle"):
        mdst_exact(ps, opts)
    # out of range or a self-loop, named as the sorted pair, in every mode
    for mode in Mode:
        for edge, shown in (((4, 0), "(0, 4)"), ((-1, 2), "(-1, 2)"),
                            ((2, 2), "(2, 2)")):
            opts = SolverOptions(mode=mode,
                                 required_edges=frozenset({(0, 1), edge}))
            with pytest.raises(ValueError,
                               match=re.escape(f"bad required edge {shown}")):
                mdst_exact(ps, opts)


def test_mdst_required_crossing_infeasible():
    ps = PointSet.from_coords(SQUARE)
    opts = SolverOptions(crossing_free=True,
                         required_edges=frozenset({(0, 2), (1, 3)}))
    with pytest.raises(Infeasible):
        mdst_exact(ps, opts)


def test_mdst_crossing_free_worse_on_witness():
    ps = PointSet.from_coords(WITNESS5)
    free = mdst_exact(ps)
    assert tree_has_crossing(ps, free.best)
    constrained = mdst_exact(ps, SolverOptions(crossing_free=True))
    assert not tree_has_crossing(ps, constrained.best)
    sign = _compare_reports(ps, constrained.best, constrained.report,
                            free.best, free.report)
    assert sign > 0


def test_mdst_size_guard():
    rng = random.Random(3)
    ps = PointSet.from_coords(random_distinct_points(rng, 10))
    with pytest.raises(SizeTooLarge):
        mdst_exact(ps)


def test_mdst_enumeration_cap():
    rng = random.Random(5)
    ps = PointSet.from_coords(random_distinct_points(rng, 6))
    # a cap of zero cannot admit even one full tree
    with pytest.raises(SizeTooLarge):
        mdst_exact(ps, SolverOptions(enumeration_cap=0))


def fifty_points():
    rng = random.Random(50)
    coords = set()
    while len(coords) < 50:
        coords.add((rng.randint(0, 10 ** 4), rng.randint(0, 10 ** 4)))
    return sorted(coords)


def test_tree_search_depth_stays_within_the_tree():
    # 1,225 candidate edges: a search recursing once per excluded edge
    # would pass Python's recursion limit before reaching the cap
    ps = PointSet.from_coords(fifty_points())
    with pytest.raises(SizeTooLarge, match="enumeration cap exceeded"):
        mdst_exact(ps, SolverOptions(max_points=50, enumeration_cap=20))


# mdst_exact tree-mode outputs recorded while tree mode still certified
# every complete tree against a greedy start tree: coordinates, offset,
# crossing_free, required edges, best tree, witness, precision, tie flag,
# trees examined, pruned (re-recorded when excludes began to cut on
# graph shortest paths) and the enclosure as (lo numerator, lo exponent,
# hi numerator, hi exponent)
RANDOM7A = [(20, 0), (16, 9), (12, 16), (5, 12), (3, 12), (1, 23), (29, 8)]
RANDOM7B = [(4, 11), (22, 23), (19, 8), (21, 14), (24, 9), (1, 14), (29, 0)]
RANDOM8A = [(29, 21), (24, 30), (1, 10), (9, 28), (0, 20), (18, 22), (14, 19),
            (8, 4)]
RANDOM8B = [(9, 31), (18, 11), (10, 16), (10, 2), (27, 30), (6, 12), (19, 8),
            (7, 30)]
TREE_PINS = [
    (RANDOM7A, off, False, (),
     ((0, 1), (0, 6), (1, 2), (2, 3), (3, 4), (4, 5)), (1, 6), 68, False, 2,
     9, (7928480525044482256395, 72, 495530032815280141025, 68))
    for off in (0, 1 << 54)] + [
    (RANDOM7B, off, False, (),
     ((0, 4), (0, 5), (1, 3), (2, 4), (3, 4), (4, 6)), (2, 3), 68, False, 2,
     10, (2040275087481692786735, 70, 8161100349926771146945, 72))
    for off in (0, 1 << 54)] + [
    (RANDOM8A, off, False, (),
     ((0, 5), (1, 5), (2, 4), (2, 7), (3, 6), (4, 6), (5, 6)), (6, 7), 68,
     False, 3, 27,
     (9735315524909993100705, 72, 4867657762454996550355, 71))
    for off in (0, 1 << 54)] + [
    (RANDOM8B, off, False, (),
     ((0, 7), (1, 3), (1, 5), (1, 6), (2, 4), (2, 5), (2, 7)), (3, 5), 68,
     False, 59, 218,
     (2639883117590780709625, 70, 5279766235181561419253, 71))
    for off in (0, 1 << 54)] + [
    ([(31, 29), (5, 8), (24, 2), (3, 13), (12, 11), (19, 5), (3, 26),
      (9, 22)], 0, True, (),
     ((0, 4), (1, 3), (2, 5), (3, 4), (3, 7), (4, 5), (6, 7)), (0, 7), 68,
     False, 8, 31,
     (2362979044327791911161, 70, 4725958088655583822325, 71)),
    ([(18, 2), (31, 0), (20, 12), (29, 31), (23, 9), (16, 29), (25, 21),
      (14, 8)], 0, False, ((0, 7),),
     ((0, 7), (1, 4), (2, 4), (2, 6), (3, 6), (4, 7), (5, 6)), (0, 1), 68,
     False, 8, 55,
     (5081794392098254198615, 71, 2540897196049127099309, 70)),
]


@pytest.mark.parametrize("pin", TREE_PINS, ids=[
    "7a", "7a_2^54", "7b", "7b_2^54", "8a", "8a_2^54", "8b", "8b_2^54",
    "crossing_free", "required"])
def test_mdst_tree_mode_pinned(pin):
    (coords, off, crossing_free, required, edges, witness, precision, tied,
     examined, pruned, value) = pin
    ps = PointSet.from_coords([(x + off, y + off) for x, y in coords])
    res = mdst_exact(ps, SolverOptions(crossing_free=crossing_free,
                                       required_edges=frozenset(required)))
    assert res.best.edges == edges
    assert res.report.witness == witness
    assert res.report.precision_used == precision
    assert res.report.tied is tied
    assert (res.trees_examined, res.pruned) == (examined, pruned)
    lo_num, lo_exp, hi_num, hi_exp = value
    assert res.report.value.lo == Fraction(lo_num, 1 << lo_exp)
    assert res.report.value.hi == Fraction(hi_num, 1 << hi_exp)


def test_exclude_cut_matches_graph_exceeds_node_by_node(monkeypatch):
    # a cut on the live matrix at 32 bits implies `graph_exceeds`'s at
    # 64 bits on the live edges, the pairs (u, t) and the same incumbent;
    # on these sets the two also agree where the 32-bit cut declines
    cut = solver._exclude_cut
    seen, wrong = [], []
    ps = None

    def checked(screen, live, u):
        got = cut(screen, live, u)
        n = len(live)
        edges = [(x, y) for x, y in itertools.combinations(range(n), 2)
                 if live[x][y] is not None]
        want = graph_exceeds(ps, edges, *screen.bound,
                                  [(u, u, t) for t in range(n) if t != u])
        seen.append(got)
        if got != want:
            wrong.append((ps.points, edges, screen.bound, u))
        return got

    monkeypatch.setattr(solver, "_exclude_cut", checked)
    rng = random.Random(3030)
    kinds = ["plain", "offset", "tiny", "crossing_free", "required"]
    for k in range(200):
        n, kind = rng.randint(5, 9), kinds[k % len(kinds)]
        coords = random_distinct_points(rng, n, hi=1 << rng.randint(2, 40))
        if kind == "offset":
            coords = [(x + (1 << 54), y + (1 << 54)) for x, y in coords]
        elif kind == "tiny":
            coords = [(Fraction(x, 1 << 100), Fraction(y, 1 << 100))
                      for x, y in coords]
        ps = PointSet.from_coords(coords)
        try:
            mdst_exact(ps, SolverOptions(
                crossing_free=kind == "crossing_free",
                required_edges=frozenset(
                    {(0, n - 1)} if kind == "required" else ())))
        except Infeasible:
            pass
    assert wrong == []
    assert len(seen) > 10000 and 0 < sum(seen) < len(seen)


def test_tree_mode_takes_no_64_bit_enclosure(monkeypatch):
    # the cuts read the screen's 32-bit table; certification at 68 bits
    # reads the table of its grid, 2^-72
    calls = []
    dist_ints = PointSet.dist_ints
    monkeypatch.setattr(PointSet, "dist_ints", lambda ps, i, j, bits: (
        calls.append(bits) or dist_ints(ps, i, j, bits)))
    for coords, off, crossing_free, required, *_ in TREE_PINS:
        ps = PointSet.from_coords([(x + off, y + off) for x, y in coords])
        mdst_exact(ps, SolverOptions(crossing_free=crossing_free,
                                     required_edges=frozenset(required)))
    assert 64 not in calls
    assert sorted(set(calls)) == [32, 72]


@pytest.mark.parametrize("coords", [RANDOM8A, RANDOM8B], ids=["8a", "8b"])
def test_mdst_matches_oracle_on_eight_points(coords):
    for off in (0, 1 << 54, 1 << 60):
        ps = PointSet.from_coords([(x + off, y + off) for x, y in coords])
        res, oracle = mdst_exact(ps), exhaustive_mdst(ps)
        assert oracle.trees_examined == 8 ** 6
        assert _compare_reports(ps, res.best, res.report,
                                oracle.best, oracle.report) == 0


def test_mdst_matches_oracle_on_nine_points():
    # 9^7 = 4,782,969 trees each; about 0.15-0.6 s per oracle run
    for seed in range(900, 904):
        for off in (0, 1 << 54):
            ps = PointSet.from_coords([(x + off, y + off)
                                       for x, y in grid_probe(seed, 9)])
            res, oracle = mdst_exact(ps), exhaustive_mdst(ps)
            assert oracle.trees_examined == 9 ** 7
            assert _compare_reports(ps, res.best, res.report,
                                    oracle.best, oracle.report) == 0


def test_crossing_free_grid_search_is_fast():
    # eight of the 3x3 unit grid's points: many exact ties and collinear
    # triples, and every include branch tests crossings
    ps = PointSet.from_coords([(x, y) for x in range(3) for y in range(3)][:8])
    start = time.perf_counter()
    res = mdst_exact(ps, SolverOptions(crossing_free=True))
    elapsed = time.perf_counter() - start
    assert res.best.edges == ((0, 4), (1, 2), (1, 4), (1, 5), (3, 4), (4, 6),
                              (4, 7))
    assert res.report.witness == (0, 1)
    assert res.report.precision_used == 272 and res.report.tied
    # 1 + sqrt(2)
    assert res.report.value.lo == Fraction(
        18320381198483092318366819162170796570593515903918213573057006220700984226932758009,
        1 << 272)
    assert res.report.value.hi == Fraction(
        293126099175729477093869106594732745129496254462691417168912099531215747630924128147,
        1 << 276)
    assert (res.trees_examined, res.pruned) == (126, 3763)
    assert elapsed < 5.0, elapsed


def test_ten_point_tree_search_is_fast():
    # the exclude cut: a completion probe plus one-stop forced edges took
    # 23 s here, with 4,173,271 nodes pruned
    ps = PointSet.from_coords([(24, 26), (15, 27), (26, 10), (30, 27),
                               (17, 16), (4, 25), (26, 21), (20, 7), (2, 18),
                               (7, 14)])
    start = time.perf_counter()
    res = mdst_exact(ps, SolverOptions(max_points=10))
    elapsed = time.perf_counter() - start
    assert res.best.edges == ((0, 3), (0, 4), (0, 6), (1, 4), (2, 4), (2, 7),
                              (4, 9), (5, 9), (8, 9))
    assert res.report.witness == (1, 5)
    assert res.trees_examined == 23
    assert elapsed < 5.0, elapsed


@pytest.mark.parametrize("offset", [0, 2 ** 54])
def test_constrained_tree_search_matches_brute_force(offset):
    # crossing-free search, and search with one edge the unconstrained
    # optimum avoids, against the first certified minimum over every
    # labeled tree that meets the constraint
    rng = random.Random(61)
    for _ in range(2):
        ps = PointSet.from_coords([(x + offset, y + offset) for x, y in
                                   random_distinct_points(rng, 6)])
        scored = [(tree, tree_dilation(ps, tree, 64))
                  for tree in enumerate_spanning_trees(6)]
        used = set(mdst_exact(ps).best.edges)
        edge = next(e for e in itertools.combinations(range(6), 2)
                    if e not in used)
        for opts, keep in [
                (SolverOptions(crossing_free=True),
                 lambda t: not tree_has_crossing(ps, t)),
                (SolverOptions(required_edges=frozenset({edge})),
                 lambda t: t.has_edge(*edge))]:
            best = rep = None
            for tree, r in scored:
                if keep(tree) and (rep is None or _compare_reports(
                        ps, tree, r, best, rep) < 0):
                    best, rep = tree, r
            res = mdst_exact(ps, opts)
            assert keep(res.best)
            assert _compare_reports(ps, res.best, res.report, best, rep) == 0


class _KeepScreen(_RunningScreen):
    """A screen that passes on only the trees `keep` accepts, decoded from
    their Prüfer codes, so its incumbent comes from those trees alone."""

    def __init__(self, ps, keep):
        super().__init__(ps)
        self.keep = keep

    def offer(self, key, sums):
        n = len(self.lens)
        if self.keep(Tree(n, _prufer_edges(n, key))):
            super().offer(key, sums)


def constrained_oracle(ps, keep):
    """The first certified minimum over the labeled trees `keep` accepts:
    `_screen_every_tree` under a `_KeepScreen` drops only trees certifiably
    above one that `keep` accepts."""
    best = rep = None
    for edges in _screen_every_tree(ps, _KeepScreen(ps, keep)):
        tree = Tree(ps.n, edges)
        r = tree_dilation(ps, tree, 64)
        if rep is None or _compare_reports(ps, tree, r, best, rep) < 0:
            best, rep = tree, r
    return best, rep


@pytest.mark.parametrize("n, seeds", [(8, (934, 810)), (9, (1096, 1104))])
def test_constrained_tree_search_matches_oracle(n, seeds):
    # crossing-free search on 8 and 9 points, and search with one edge the
    # unconstrained optimum avoids on 8 (at 9 the oracle takes seconds);
    # the free search's optimum crosses on sets 934, 1096 and 1104
    for seed in seeds:
        ps = PointSet.from_coords(grid_probe(seed, n))
        used = set(mdst_exact(ps).best.edges)
        edge = next(e for e in itertools.combinations(range(n), 2)
                    if e not in used)
        cases = [(SolverOptions(crossing_free=True),
                  lambda t: not tree_has_crossing(ps, t))]
        if n == 8:
            cases.append((SolverOptions(required_edges=frozenset({edge})),
                          lambda t: t.has_edge(*edge)))
        for opts, keep in cases:
            best, rep = constrained_oracle(ps, keep)
            res = mdst_exact(ps, opts)
            assert keep(res.best)
            assert _compare_reports(ps, res.best, res.report, best, rep) == 0


def test_screen_join_writes_new_pairs_and_leaves_the_caller_alone():
    ps = PointSet.from_coords([(0, 0), (4, 0), (4, 3), (1, 5)])
    screen = _RunningScreen(ps)
    pairs, lens = screen.pairs, screen.lens
    singles = [[x] for x in range(4)]
    comp = screen.join(screen.join(singles, 0, 1), 2, 3)
    kept = copy.deepcopy(comp)
    joined = screen.join(comp, 1, 2)
    # each new pair x, y is x-1 plus the edge plus 2-y, both ways round
    for x, y in itertools.product((0, 1), (2, 3)):
        want = tuple(a + e + b for a, e, b in
                     zip(pairs[x][1], lens[1][2], pairs[2][y]))
        assert pairs[x][y] == pairs[y][x] == want
    # one shared list for the merged component; the caller's untouched
    assert all(c is joined[0] for c in joined)
    assert sorted(joined[0]) == [0, 1, 2, 3]
    assert comp == kept and comp[0] is comp[1] and comp[2] is comp[3]
    assert singles == [[0], [1], [2], [3]]
    # below the detour 0-1-2, of 7 against |02| = 5, the join is refused
    # and writes nothing
    screen = _RunningScreen(ps)
    comp = screen.join(screen.join(singles, 0, 1), 2, 3)
    before = copy.deepcopy(screen.pairs)
    screen.bound = (6, 5)
    assert screen.join(comp, 1, 2) is None
    assert screen.pairs == before


@pytest.mark.parametrize("mode", list(Mode))
def test_required_edge_given_both_ways_is_one_edge(mode):
    ps = PointSet.from_coords(RANDOM7A)
    results = [mdst_exact(ps, SolverOptions(
        mode=mode, required_edges=frozenset(required)))
        for required in ({(0, 2)}, {(0, 2), (2, 0)})]
    assert results[0] == results[1]
    assert (0, 2) in (results[0].best if mode is Mode.TOUR
                      else results[0].best.edges)


# ---------------------------------------------------------------------------
# paths and tours


def test_path_collinear_monotone():
    ps = PointSet.from_coords([(0, 0), (1, 0), (3, 0)])
    res = mdst_exact(ps, SolverOptions(mode=Mode.PATH))
    assert res.best.edges == ((0, 1), (1, 2))
    assert res.report.value.lo == 1 and res.report.value.hi == 1
    # the monotone order, the first incumbent, cuts every other prefix
    assert (res.trees_examined, res.pruned) == (1, 4)


def test_path_certification_of_a_collinear_set_builds_no_product(
        monkeypatch):
    # a path is certified as a tree, so a straight one reports exactly 1
    # from the integer straightness test, with no SqrtSum product
    ps = PointSet.from_coords([(k, 2 * k) for k in (0, 1, 3, 4, 9, 13, 20)])
    calls = []
    mul = SqrtSum.__mul__
    monkeypatch.setattr(SqrtSum, "__mul__",
                        lambda a, b: calls.append(1) or mul(a, b))
    res = mdst_exact(ps, SolverOptions(mode=Mode.PATH))
    assert calls == []
    assert res.best.edges == tuple((i, i + 1) for i in range(6))
    rep = res.report
    assert (rep.witness, rep.tied, rep.precision_used) == ((0, 1), True, 68)
    assert rep.value.lo == rep.value.hi == 1
    assert (res.trees_examined, res.pruned) == (1, 60)


def test_path_square():
    ps = PointSet.from_coords(SQUARE)
    res = mdst_exact(ps, SolverOptions(mode=Mode.PATH))
    assert (res.trees_examined, res.pruned) == (5, 16)
    lo, hi = res.report.value.lo, res.report.value.hi
    # best Hamiltonian path value is 1 + sqrt(2)
    assert (lo - 1) ** 2 <= 2 <= (hi - 1) ** 2
    # exhaustive check against an independent per-path evaluation
    best_his = []
    for perm in itertools.permutations(range(4)):
        if perm[0] > perm[-1]:
            continue
        tree = Tree(4, [tuple(sorted(e)) for e in zip(perm, perm[1:])])
        best_his.append(tree_dilation(ps, tree, 64).value.hi)
    assert res.report.value.lo <= min(best_his)


def test_tour_square_perimeter():
    ps = PointSet.from_coords(SQUARE)
    res = mdst_exact(ps, SolverOptions(mode=Mode.TOUR))
    assert res.best == ((0, 1), (0, 3), (1, 2), (2, 3))
    assert (res.trees_examined, res.pruned) == (1, 4)
    lo, hi = res.report.value.lo, res.report.value.hi
    assert lo ** 2 <= 2 <= hi ** 2
    # both diagonals attain sqrt(2): an exact tie
    assert res.report.tied
    assert res.report.witness == (0, 2)


def test_tour_three_points_is_complete_graph():
    # a 3-cycle contains every edge, so its dilation is exactly 1
    for coords in ([(0, 0), (4, 0), (2, 3)], [(0, 0), (7, 1), (3, 5)]):
        res = mdst_exact(PointSet.from_coords(coords),
                         SolverOptions(mode=Mode.TOUR))
        lo, hi = res.report.value.lo, res.report.value.hi
        assert lo <= 1 <= hi
        assert hi - lo <= Fraction(1, 1 << 60)
        assert res.report.tied


def test_tour_respects_structural_validity():
    rng = random.Random(9)
    ps = PointSet.from_coords(random_distinct_points(rng, 6))
    res = mdst_exact(ps, SolverOptions(mode=Mode.TOUR))
    edges = res.best
    assert len(edges) == 6
    deg = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    assert all(deg[v] == 2 for v in range(6))


def test_structure_mode_guards():
    rng = random.Random(1)
    big = PointSet.from_coords(random_distinct_points(rng, 14))
    # past max_points, the order search's own cap still holds
    with pytest.raises(SizeTooLarge, match="capped at 13 points"):
        mdst_exact(big, SolverOptions(mode=Mode.PATH, max_points=big.n))


def test_path_mode_via_options():
    ps = PointSet.from_coords([(0, 0), (1, 0), (3, 0)])
    res = mdst_exact(ps, SolverOptions(mode=Mode.PATH))
    assert res.best.edges == ((0, 1), (1, 2))


@pytest.mark.parametrize("mode", list(Mode))
def test_size_guards_in_every_mode(mode):
    rng = random.Random(5)
    ps = PointSet.from_coords(random_distinct_points(rng, 6))
    with pytest.raises(SizeTooLarge):
        mdst_exact(ps, SolverOptions(mode=mode, max_points=4))
    with pytest.raises(SizeTooLarge):
        mdst_exact(ps, SolverOptions(mode=mode, enumeration_cap=0))
    # the cap bounds the complete trees or feasible orderings examined
    examined = mdst_exact(ps, SolverOptions(mode=mode)).trees_examined
    mdst_exact(ps, SolverOptions(mode=mode, enumeration_cap=examined))
    with pytest.raises(SizeTooLarge):
        mdst_exact(ps, SolverOptions(mode=mode, enumeration_cap=examined - 1))


# translating these points by 2^54 once made path search return the
# ordering 0-1-2-3-4 (dilation ~2.927) instead of 0-1-2-4-3 (~2.705)
TRANSLATION_PROBE = [(0, 0), (3, 1), (5, 4), (1, 6), (7, 7)]


@pytest.mark.parametrize("mode", [Mode.PATH, Mode.TOUR])
def test_order_search_invariant_under_translation(mode):
    outcomes = []
    for offset in (0, 2 ** 54, 2 ** 60):
        ps = PointSet.from_coords([(x + offset, y + offset)
                                   for x, y in TRANSLATION_PROBE])
        res = mdst_exact(ps, SolverOptions(mode=mode))
        outcomes.append((res.best, res.report.value, res.trees_examined,
                         res.pruned))
        if mode is Mode.PATH:
            assert set(res.best.edges) == {(0, 1), (1, 2), (2, 4), (3, 4)}
    assert outcomes[0] == outcomes[1] == outcomes[2]


def _exact_walk(ps, verts):
    """Exact length of the walk through `verts`, summed edge by edge."""
    total = SqrtSum.zero()
    for a, b in zip(verts, verts[1:]):
        total = total + SqrtSum.sqrt_of(ps.distance_sq(a, b))
    return total


@pytest.mark.parametrize("offset", [0, 2 ** 54, 2 ** 60])
def test_order_exact_matches_independent_arc_sums(offset):
    # an arc is a difference of exact prefix sums, a tour's other arc the
    # total minus it; both must equal the arc summed edge by edge
    rng = random.Random(offset % 1021 + 31)
    for n in (5, 6, 7):
        ps = PointSet.from_coords([(x + offset, y + offset) for x, y in
                                   random_distinct_points(rng, n)])
        order = tuple(rng.sample(range(n), n))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        for closed in (False, True):
            _, exact = _order_metric(ps, order, closed)
            rng.shuffle(pairs)
            for u, v in pairs:
                i, j = sorted((order.index(u), order.index(v)))
                arc = _exact_walk(ps, order[i:j + 1])
                if closed:
                    other = _exact_walk(ps, order[j:] + order[:i + 1])
                    arc = other if (other - arc).sign() < 0 else arc
                d, length = exact(u, v)
                assert d == arc
                assert length == SqrtSum.sqrt_of(ps.distance_sq(u, v))


def _orderings(n, closed):
    """Every path up to reversal, or every tour up to rotation and
    reflection, as its normalised edge list."""
    seen = set()
    for perm in itertools.permutations(range(n)):
        steps = list(zip(perm, perm[1:] + perm[:1] if closed else perm[1:]))
        edges = tuple(sorted(tuple(sorted(e)) for e in steps))
        if edges not in seen:
            seen.add(edges)
            yield list(edges)


def _check_against_all_orderings(ps, mode, required=(), crossing_free=False):
    """Brute force over every feasible ordering: paths by `tree_dilation`
    and `_compare_reports`, tours by `graph_dilation_bounds`."""
    res = mdst_exact(ps, SolverOptions(mode=mode, crossing_free=crossing_free,
                                       required_edges=frozenset(required)))
    feasible = [edges for edges in _orderings(ps.n, mode is Mode.TOUR)
                if set(required) <= set(edges)
                and not (crossing_free and crossing_edge_pairs(ps, edges))]
    # cut prefixes never reach the screen
    assert res.trees_examined <= len(feasible)
    best = list(res.best.edges) if mode is Mode.PATH else list(res.best)
    assert best in feasible
    if mode is Mode.PATH:
        for edges in feasible:
            tree = Tree(ps.n, edges)
            rep = tree_dilation(ps, tree, 64)
            assert _compare_reports(ps, tree, rep, res.best, res.report) >= 0
    else:
        own = graph_dilation_bounds(ps, best, 64)
        assert own.lo <= res.report.value.hi and res.report.value.lo <= own.hi
        for edges in feasible:
            assert res.report.value.lo <= graph_dilation_bounds(ps, edges,
                                                                64).hi
    return res


@pytest.mark.parametrize("mode", [Mode.PATH, Mode.TOUR])
def test_order_search_matches_exhaustive_oracle(mode):
    rng = random.Random(20261018)
    for n in (5, 6, 7):
        coords = random_distinct_points(rng, n)
        results = []
        for offset in (0, 2 ** 54, 2 ** 60):
            ps = PointSet.from_coords([(x + offset, y + offset)
                                       for x, y in coords])
            res = _check_against_all_orderings(ps, mode)
            results.append((res.best, res.report.value))
        assert results[0] == results[1] == results[2]


@pytest.mark.parametrize("mode, offset", [
    pytest.param(mode, 2 ** e if e else 0,
                 id=f"{mode}-2^{e}" if e else str(mode))
    for mode in (Mode.PATH, Mode.TOUR) for e in (0, 54, 60)])
def test_order_search_constraints_match_oracle(mode, offset):
    rng = random.Random(77)
    ps = PointSet.from_coords([(x + offset, y + offset) for x, y in
                               random_distinct_points(rng, 6)])
    free = _check_against_all_orderings(ps, mode, crossing_free=True)
    edges = free.best.edges if mode is Mode.PATH else free.best
    assert not crossing_edge_pairs(ps, list(edges))
    # an edge the unconstrained optimum avoids
    unconstrained = mdst_exact(ps, SolverOptions(mode=mode))
    used = set(unconstrained.best.edges if mode is Mode.PATH
               else unconstrained.best)
    edge = next(e for e in itertools.combinations(range(6), 2)
                if e not in used)
    forced = _check_against_all_orderings(ps, mode, required=[edge])
    assert edge in (forced.best.edges if mode is Mode.PATH else forced.best)


GRID3 = [(x, y) for x in range(3) for y in range(3)]
RANDOM8 = [(8, 5), (24, 17), (24, 12), (5, 19), (13, 11), (12, 20), (12, 7),
           (12, 5)]
RANDOM10 = [(24, 15), (26, 30), (17, 4), (26, 20), (2, 7), (5, 9), (28, 0),
            (27, 14), (17, 18), (23, 23)]

# path and tour optima recorded when every ordering went through the
# screen: best edges, the enclosure as (lo numerator, lo exponent, hi
# numerator, hi exponent), witness, tie flag; the grid's path is the
# first of several exactly tied optima
ORDER_PINS = [
    (RANDOM8, Mode.PATH,
     ((0, 7), (1, 2), (2, 5), (3, 4), (3, 5), (4, 6), (6, 7)),
     (7124458642275983202477, 71, 7124458642275983202481, 71), (1, 4), False),
    (RANDOM8, Mode.TOUR,
     ((0, 2), (0, 7), (1, 2), (1, 5), (3, 4), (3, 5), (4, 6), (6, 7)),
     (11794779687203108220731, 72, 184293432612548565949, 66), (2, 4), False),
    (GRID3, Mode.PATH,
     ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8)),
     (int("2571649214138250333959042932206810118723010908684296346062237077"
          "33885900621270382207"), 275,
      int("2009100948545508073405502290786570405252352272409606520361122716"
          "670983598603674861"), 268), (0, 3), True),
    (GRID3, Mode.TOUR,
     ((0, 1), (0, 6), (1, 2), (2, 5), (3, 6), (3, 7), (4, 5), (4, 8), (7, 8)),
     (4519808984002603549785, 70, 2259904492001301774893, 69), (3, 4), False),
    (RANDOM10, Mode.PATH,
     ((0, 7), (0, 8), (1, 9), (2, 5), (2, 6), (3, 7), (3, 9), (4, 5), (6, 8)),
     (28589935827851933419, 63, 1829755892982523738817, 69), (0, 2), False),
    (RANDOM10, Mode.TOUR,
     ((0, 7), (0, 8), (1, 4), (1, 9), (2, 5), (2, 6), (3, 7), (3, 9), (4, 5),
      (6, 8)),
     (28589935827851933419, 63, 1829755892982523738817, 69), (0, 2), False),
]


@pytest.mark.parametrize("pin", ORDER_PINS, ids=[
    "random8-path", "random8-tour", "grid3-path", "grid3-tour",
    "random10-path", "random10-tour"])
def test_order_search_pinned(pin):
    coords, mode, edges, value, witness, tied = pin
    ps = PointSet.from_coords(coords)
    res = mdst_exact(ps, SolverOptions(mode=mode, max_points=ps.n))
    assert (res.best.edges if mode is Mode.PATH else res.best) == edges
    lo_num, lo_exp, hi_num, hi_exp = value
    assert res.report.value.lo == Fraction(lo_num, 1 << lo_exp)
    assert res.report.value.hi == Fraction(hi_num, 1 << hi_exp)
    assert (res.report.witness, res.report.tied) == (witness, tied)


@pytest.mark.parametrize("mode", [Mode.PATH, Mode.TOUR])
def test_order_search_invariant_under_tiny_scale(mode):
    # the screen's enclosures keep their precision relative to each
    # length, so at 2^-100 the search cuts and screens out what it does at
    # scale 1, and reports the same enclosure
    coords = random_distinct_points(random.Random(606), 6)
    tiny = Fraction(1, 1 << 100)
    results = [mdst_exact(PointSet.from_coords(
        [(x * scale, y * scale) for x, y in coords]), SolverOptions(mode=mode))
        for scale in (1, tiny)]
    assert results[0] == results[1]
    assert results[1].pruned > 0


def grid_probe(seed, n):
    """n distinct random points of a 32x32 grid, sorted."""
    rng = random.Random(seed)
    coords = set()
    while len(coords) < n:
        coords.add((rng.randrange(32), rng.randrange(32)))
    return sorted(coords)


@pytest.mark.parametrize("mode", ["path", "tour", "exhaustive", "tree"])
def test_screens_cut_at_tiny_scale(mode):
    # enclosed on an absolute grid of 2^-40, every 2^-100-scale length has
    # lower end 0: the 8-point path search then certifies all 20,160
    # orderings (4 s), and tree mode, cutting at 64 bits, reaches
    # thousands of trees
    coords = grid_probe(108, 6 if mode == "exhaustive" else 8)
    results = []
    for scale in (1, Fraction(1, 1 << 100)):
        ps = PointSet.from_coords([(x * scale, y * scale) for x, y in coords])
        start = time.perf_counter()
        results.append(exhaustive_mdst(ps) if mode == "exhaustive"
                       else mdst_exact(ps, SolverOptions(mode=Mode(mode))))
        elapsed = time.perf_counter() - start
    one, tiny = results
    assert tiny.best == one.best
    assert tiny.pruned > 0
    assert (tiny.trees_examined, tiny.pruned) == \
        (one.trees_examined, one.pruned)
    assert elapsed < 0.1


# best and report of the path search with one required edge, recorded
# before prefixes that break a required edge were cut (2.5 s and 28 s
# then): best edges, the enclosure as (lo numerator, lo exponent,
# hi numerator, hi exponent), witness
REQUIRED_PINS = [
    (110, 10, (0, 9),
     ((0, 1), (0, 9), (2, 3), (2, 9), (3, 5), (4, 6), (4, 8), (5, 8), (6, 7)),
     (4426122612597159288645, 70, 17704490450388637154585, 72), (1, 3)),
    (111, 11, (0, 10),
     ((0, 9), (0, 10), (1, 6), (2, 4), (2, 5), (3, 4), (3, 8), (5, 7), (6, 8),
      (7, 10)),
     (11349994108362612450619, 71, 11349994108362612450623, 71), (0, 2)),
]


@pytest.mark.parametrize("pin", REQUIRED_PINS, ids=["random10", "random11"])
def test_required_edge_path_pinned(pin):
    seed, n, edge, edges, value, witness = pin
    start = time.perf_counter()
    res = mdst_exact(PointSet.from_coords(grid_probe(seed, n)), SolverOptions(
        mode=Mode.PATH, required_edges=frozenset({edge}), max_points=n))
    elapsed = time.perf_counter() - start
    assert res.best.edges == edges
    lo_num, lo_exp, hi_num, hi_exp = value
    assert res.report.value.lo == Fraction(lo_num, 1 << lo_exp)
    assert res.report.value.hi == Fraction(hi_num, 1 << hi_exp)
    assert (res.report.witness, res.report.tied) == (witness, False)
    assert elapsed < 1


@pytest.mark.parametrize("mode", [Mode.PATH, Mode.TOUR])
@pytest.mark.parametrize("required", [
    [(0, 5)], [(0, 1), (0, 2)], [(1, 4), (2, 4)], [(0, 5), (2, 3)],
    [(3, 5), (4, 5), (0, 1)]])
def test_order_search_required_edges_match_oracle(mode, required):
    # required partners of the start, of the last vertex and of a vertex
    # with two required edges: cut prefixes must never lose a feasible
    # optimum, which a tour's start (two neighbours) makes easy to do
    ps = PointSet.from_coords(random_distinct_points(random.Random(77), 6))
    res = _check_against_all_orderings(ps, mode, required=required)
    best = res.best.edges if mode is Mode.PATH else res.best
    assert set(required) <= set(best)


@pytest.mark.parametrize("mode", [Mode.PATH, Mode.TOUR])
def test_order_search_rejects_overloaded_required_vertex(mode):
    ps = PointSet.from_coords(RANDOM8)
    with pytest.raises(Infeasible, match="more than two required edges"):
        mdst_exact(ps, SolverOptions(
            mode=mode, required_edges=frozenset({(0, 1), (0, 2), (0, 3)})))


_HASH_SEED_PROBE = """
import random
from dilatree.dilation import PointSet
from dilatree.solver import Mode, SolverOptions, mdst_exact
rng = random.Random(808)
coords = []
while len(coords) < 8:
    p = (rng.randrange(32), rng.randrange(32))
    if p not in coords:
        coords.append(p)
ps = PointSet.from_coords(coords)
for mode in (Mode.PATH, Mode.TOUR):
    res = mdst_exact(ps, SolverOptions(mode=mode))
    print(res.best, res.trees_examined, res.pruned)
for crossing_free in (False, True):
    res = mdst_exact(ps, SolverOptions(crossing_free=crossing_free))
    print(res.best, res.trees_examined, res.pruned)
"""


def test_order_search_counts_ignore_hash_seed():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    outputs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        proc = subprocess.run([sys.executable, "-c", _HASH_SEED_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 4


# ---------------------------------------------------------------------------
# uncrossing exchange


def convex_position_4(rng):
    # points on a randomly squashed circle are in convex position
    import math
    while True:
        phases = sorted(rng.uniform(0, 2 * math.pi) for _ in range(4))
        r = rng.randint(20, 60)
        sx, sy = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        pts = [(round(r * sx * math.cos(a)), round(r * sy * math.sin(a)))
               for a in phases]
        if len(set(pts)) < 4:
            continue
        hull_ok = True
        for i in range(4):
            a, b, c = pts[i], pts[(i + 1) % 4], pts[(i + 2) % 4]
            cross = (b[0] - a[0]) * (c[1] - a[1]) \
                - (b[1] - a[1]) * (c[0] - a[0])
            if cross <= 0:
                hull_ok = False
                break
        if hull_ok:
            return pts


def test_uncross_square_diagonals():
    ps = PointSet.from_coords(SQUARE)
    t = Tree(4, [(0, 2), (1, 3), (2, 3)])
    assert tree_has_crossing(ps, t)
    fixed = uncross_four(ps, t)
    assert not tree_has_crossing(ps, fixed)
    before = tree_dilation(ps, t, 64)
    after = tree_dilation(ps, fixed, 64)
    assert _compare_reports(ps, fixed, after, t, before) <= 0


def test_uncross_all_crossing_trees_random_convex():
    rng = random.Random(77)
    checked = 0
    for _ in range(12):
        ps = PointSet.from_coords(convex_position_4(rng))
        for tree in enumerate_spanning_trees(4):
            if not tree_has_crossing(ps, tree):
                continue
            fixed = uncross_four(ps, tree)
            assert not tree_has_crossing(ps, fixed)
            before = tree_dilation(ps, tree, 64)
            after = tree_dilation(ps, fixed, 64)
            assert _compare_reports(ps, fixed, after, tree, before) <= 0
            checked += 1
    assert checked > 0


def test_uncross_requires_crossing():
    ps = PointSet.from_coords(SQUARE)
    with pytest.raises(NotCrossing):
        uncross_four(ps, Tree(4, [(0, 1), (1, 2), (2, 3)]))


def test_uncross_collinear_overlap_not_applicable():
    ps = PointSet.from_coords([(0, 0), (1, 0), (2, 0), (3, 0)])
    t = Tree(4, [(0, 2), (1, 3), (2, 3)])
    with pytest.raises(NotApplicable):
        uncross_four(ps, t)


def test_uncross_wrong_size():
    ps = PointSet.from_coords([(0, 0), (1, 0), (3, 0)])
    with pytest.raises(ValueError):
        uncross_four(ps, Tree(3, [(0, 1), (1, 2)]))


def test_crossing_free_optimum_exists_on_4_points():
    # no 4-point set needs a crossing: constrained equals unconstrained
    rng = random.Random(123)
    for _ in range(10):
        ps = PointSet.from_coords(convex_position_4(rng))
        free = mdst_exact(ps)
        constrained = mdst_exact(ps, SolverOptions(crossing_free=True))
        sign = _compare_reports(ps, constrained.best, constrained.report,
                                free.best, free.report)
        assert sign == 0


# ---------------------------------------------------------------------------
# five-point witness


def test_locked_witness_verifies():
    ps = PointSet.from_coords(WITNESS5)
    check = verify_crossing_witness(ps)
    assert check is not None
    assert len(check.optimal_trees) == 1
    assert tree_has_crossing(ps, check.best_tree)
    assert check.crossing_free_strictly_worse
    # the crossing pair shares no vertex
    pairs = crossing_edge_pairs(ps, check.best_tree.edges)
    assert pairs and all(not set(e1) & set(e2) for e1, e2 in pairs)
    # its critical edges sit inside every optimal tree
    for tree in check.optimal_trees:
        assert check.critical <= set(tree.edges)


def test_witness_check_agrees_with_exhaustive_oracle():
    for off in (0, 1 << 54):
        ps = PointSet.from_coords([(x + off, y + off) for x, y in WITNESS5])
        check = verify_crossing_witness(ps)
        oracle = exhaustive_mdst(ps, 96)
        assert check.best_tree == oracle.best
        assert check.report == oracle.report
        assert check.optimal_trees == (oracle.best,)


def test_witness_optimal_trees_pinned():
    # recorded before the oracle enumerated trees by shared prefixes
    check = verify_crossing_witness(PointSet.from_coords(WITNESS5))
    assert [t.edges for t in check.optimal_trees] == \
        [((0, 1), (1, 3), (1, 4), (2, 3))]
    assert check.best_tree.edges == ((0, 1), (1, 3), (1, 4), (2, 3))
    assert sorted(check.critical) == [(0, 1), (1, 3), (2, 3)]


@pytest.mark.parametrize("edges, is_path", [
    ({(0, 1), (1, 3), (2, 3)}, True),
    ({(0, 4), (4, 2), (2, 7), (1, 7)}, True),
    ({(0, 1), (1, 2)}, False),                      # too short
    ({(0, 1), (0, 2), (0, 3)}, False),              # a star
    ({(0, 1), (1, 2), (0, 2)}, False),              # a triangle
    ({(0, 1), (1, 2), (2, 3), (0, 3)}, False),      # a 4-cycle
    ({(0, 1), (1, 2), (3, 4)}, False),              # path plus an edge
])
def test_critical_path_structure_shapes(edges, is_path):
    check = SimpleNamespace(critical=frozenset(edges))
    assert critical_path_structure(check) is is_path


def test_non_witness_returns_none():
    # square plus center: the star from the center is crossing-free optimal
    ps = PointSet.from_coords([(0, 0), (2, 0), (2, 2), (0, 2), (1, 1)])
    assert verify_crossing_witness(ps) is None


def test_witness_search_finds_and_verifies():
    found = witness_search_five(seed=10, budget=5000)
    assert found is not None
    check = verify_crossing_witness(found)
    assert check is not None
    assert critical_path_structure(check)
    assert all(tree_has_crossing(found, t) for t in check.optimal_trees)


def test_witness_search_budget_one_returns_none():
    assert witness_search_five(seed=424242, budget=1) is None


def test_witness_search_deterministic():
    a = witness_search_five(seed=10, budget=5000)
    b = witness_search_five(seed=10, budget=5000)
    assert a is not None and b is not None
    assert [(p.x, p.y) for p in a.points] == [(p.x, p.y) for p in b.points]
    # pinned, so a reordered tree or pair table shows
    assert a.numerators == [(23, -1), (16, -5), (1, 2), (314, -63), (0, 101)]


# counts Tree.__init__ calls during `import dilatree`, then during one
# Tree built after it, so a probe that sees nothing fails too
_IMPORT_PROBE = """
import sys
calls = []

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "__init__" \\
            and type(frame.f_locals.get("self")).__name__ == "Tree":
        calls.append(frame.f_code.co_filename)

sys.setprofile(hook)
import dilatree
imported = len(calls)
dilatree.Tree(2, [(0, 1)])
sys.setprofile(None)
print(imported, len(calls) - imported)
"""


def test_import_builds_no_tree():
    # the witness hunt's tables are built on its first call, not at import
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_witness_search_rejects_bad_budget():
    with pytest.raises(ValueError):
        witness_search_five(seed=1, budget=0)
