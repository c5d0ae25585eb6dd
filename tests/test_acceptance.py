"""Acceptance gate: ten end-to-end criteria, one printed verdict line each.

Exact checks are rational equalities; certified checks escalate interval
precision until the comparison separates.  Verdict lines are echoed
inline and repeated in the terminal summary (see conftest) so they stay
visible under output capture.
"""

import math
import random
from fractions import Fraction

from dilatree.dilation import (
    PointSet, Tree, Verdict, compare_to_threshold, critical_edges,
    crossing_edge_pairs, pair_dilation, tree_dilation, tree_has_crossing,
)
from dilatree.exactgeom import Point
from dilatree.gadget import (
    PartitionInstance, build_gadget, decide_partition, partition_oracle,
    standard_tree, symbolic_pair_ratio,
)
from dilatree.solver import (
    SolverOptions, critical_path_structure, enumerate_spanning_trees,
    exhaustive_mdst, mdst_exact, uncross_four, verify_crossing_witness,
    witness_search_five,
)
from test_solver import _compare_reports

HALF = Fraction(3, 2)

RESULTS = []


def announce(num: int, ok: bool, detail: str):
    RESULTS.append((num, ok, detail))
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def four(j: int) -> int:
    return 1 << (2 * j)


def random_weights(rng, n):
    return tuple(rng.randint(1, 9) for _ in range(n))


def forced_edge_set(g):
    n = g.n
    base = [(g.q1, g.a(1)), (g.a(n + 1), g.p1), (g.p1, g.p2)]
    for i in range(1, n + 1):
        base += [(g.a(i), g.b(i)), (g.b(i), g.c(i)), (g.d(i), g.a(i + 1))]
    out = set()
    for u, v in base:
        out.add(tuple(sorted((u, v))))
        out.add(tuple(sorted((g.mirror(u), g.mirror(v)))))
    return frozenset(out)


def family_tree(g, right, left, attach):
    n = g.n
    edges = list(forced_edge_set(g))
    for i in range(1, n + 1):
        tgt = g.d(i) if i in right else g.a(i + 1)
        edges.append(tuple(sorted((g.c(i), tgt))))
        mtgt = g.mirror(g.d(i)) if i in left else g.mirror(g.a(i + 1))
        edges.append(tuple(sorted((g.mirror(g.c(i)), mtgt))))
    edges.append(tuple(sorted((g.q2, attach))))
    return Tree(8 * n + 8, edges)


def all_balanced_halves(alphas_dot):
    n = len(alphas_dot)
    total = sum(alphas_dot)
    out = []
    if total % 2 == 0:
        for mask in range(1 << n):
            side = [i + 1 for i in range(n) if mask >> i & 1]
            if 2 * sum(alphas_dot[i - 1] for i in side) == total:
                out.append(frozenset(side))
    return out


def test_criterion_01_distance_identities_exact():
    rng = random.Random(101)
    checked = 0
    ok = True
    for n in range(1, 7):
        g = build_gadget(PartitionInstance(random_weights(rng, n)))
        ps = g.points
        for i in range(1, n + 1):
            s = four(i - 1)
            ok &= ps.distance_sq(g.a(i), g.a(i + 1)) == Fraction(15 * s) ** 2
            ok &= ps.distance_sq(g.a(i), g.b(i)) == Fraction(s) ** 2
            ok &= ps.distance_sq(g.b(i), g.c(i)) == Fraction(3 * s) ** 2
            ok &= ps.distance_sq(g.c(i), g.a(i + 1)) == Fraction(11 * s) ** 2
            checked += 4
        ok &= ps.distance_sq(g.a(1), g.a(n + 1)) \
            == Fraction(5 * (four(n) - 1)) ** 2
        ok &= ps.distance_sq(g.q2, g.p2) \
            == (Fraction(5, 3) * four(n + 1) - Fraction(101, 30)) ** 2
        checked += 2
    announce(1, ok, f"{checked} squared-distance identities exact, n=1..6, "
                    "tolerance zero")


def test_criterion_02_anchor_angle_and_height():
    rng = random.Random(202)
    checked = 0
    ok = True
    for n in range(1, 7):
        g = build_gadget(PartitionInstance(random_weights(rng, n)))
        for i in range(1, n + 1):
            # cosine theorem on the defining radii, purely rational
            r1 = g.rational_lengths[(g.c(i), g.d(i))]
            cos = (125 * four(i - 1) ** 2 - r1 * r1) / (44 * four(i - 1) ** 2)
            ok &= cos > Fraction(21, 22)
            ok &= g.points[g.d(i)].y < g.points[g.a(i + 1)].y
            checked += 2
    announce(2, ok, f"{checked} anchor-angle cosines > 21/22 and height "
                    "orderings certified, n=1..6")


def test_criterion_03_forced_edge_scan():
    rng = random.Random(303)
    ok = True
    sizes = []
    for n in range(1, 6):
        g = build_gadget(PartitionInstance(random_weights(rng, n)))
        got = critical_edges(g.points, 8, 5)
        ok &= got == forced_edge_set(g)
        ok &= len(got) == 6 * n + 6
        sizes.append(len(got))
    announce(3, ok, f"forced-edge scans match the construction exactly, "
                    f"sizes {sizes} for n=1..5")


def test_criterion_04_balanced_ratio_is_three_halves():
    ok = True
    trees = 0
    for alphas in [(1, 1), (2, 3, 5), (1, 1, 2, 2)]:
        g = build_gadget(PartitionInstance(alphas))
        ps = g.points
        top = {tuple(sorted((g.q2, g.p2))),
               tuple(sorted((g.q2, g.mirror(g.p2))))}
        halves = all_balanced_halves(alphas)
        ok &= bool(halves)
        for half in halves:
            tree = standard_tree(g, half)
            ok &= symbolic_pair_ratio(g, tree, g.q2, g.p2) == HALF
            ok &= symbolic_pair_ratio(g, tree, g.q2, g.mirror(g.p2)) == HALF
            report = tree_dilation(ps, tree, 64)
            ok &= report.witness in top
            for u in range(len(ps)):
                for v in range(u + 1, len(ps)):
                    if (u, v) in top:
                        continue
                    enc = pair_dilation(ps, tree, u, v, 64)
                    if not enc.hi < HALF:
                        enc = pair_dilation(ps, tree, u, v, 192)
                    ok &= enc.hi < HALF
            trees += 1
    announce(4, ok, f"{trees} balanced trees: symbolic ratio exactly 3/2, "
                    "witness is a far-pair, all other pairs certified below")


def test_criterion_05_no_partition_gap():
    ok = True
    counts = []
    for alphas in [(1, 1, 1), (1, 2, 4), (1, 1, 1, 2)]:
        inst = PartitionInstance(alphas)
        ok &= partition_oracle(inst) is None
        g = build_gadget(inst)
        n, sd = inst.n, inst.sigma_dot
        p_num = 3 * four(n + 4) * sd + 1
        q_den = 2 * four(n + 4) * sd
        full = set(range(1, n + 1))
        count = 0
        attachments = [g.q1] + [j for j in range(8 * n + 8) if j > g.q2]
        for attach in attachments:
            for mask in range(1 << (2 * n)):
                right = {i for i in full if mask >> (i - 1) & 1}
                left = {i for i in full if mask >> (n + i - 1) & 1}
                tree = family_tree(g, right, left, attach)
                verdict = compare_to_threshold(g.points, tree, p_num, q_den)
                ok &= verdict is Verdict.GREATER
                count += 1
        ok &= count == (8 * n + 7) * 4 ** n
        counts.append(count)
    announce(5, ok, f"every constrained tree certifies above threshold; "
                    f"counts {counts}")


def test_criterion_06_reduction_matches_oracle():
    rng = random.Random(606)
    agree = 0
    ok = True
    for _ in range(20):
        n = rng.randint(1, 4)
        inst = PartitionInstance(random_weights(rng, n))
        expect = partition_oracle(inst) is not None
        got = decide_partition(build_gadget(inst))
        if got is not None:
            sol, _tree = got
            ok &= sol.consistent_with(inst.alphas_dot)
        ok &= (got is not None) == expect
        agree += 1
    announce(6, ok, f"decide matches the subset-sum oracle on {agree}/20 "
                    "random instances, n <= 4")


def test_criterion_07_search_matches_exhaustive():
    rng = random.Random(707)
    ok = True
    done = 0
    for _ in range(100):
        n = rng.randint(5, 7)
        coords = set()
        while len(coords) < n:
            coords.add((rng.randint(0, 40), rng.randint(0, 40)))
        ps = PointSet.from_coords(sorted(coords))
        bb = mdst_exact(ps)
        oracle = exhaustive_mdst(ps, 64)
        ok &= _compare_reports(ps, bb.best, bb.report,
                               oracle.best, oracle.report) == 0
        done += 1
    announce(7, ok, f"branch-and-bound optimum certified equal to the "
                    f"exhaustive oracle on {done}/100 sets of 5-7 points")


def _convex_quad(rng):
    while True:
        pts = []
        for _ in range(4):
            ang = rng.uniform(0, 2 * math.pi)
            r = rng.uniform(6, 14)
            pts.append((round(r * math.cos(ang)),
                        round(0.6 * r * math.sin(ang))))
        if len(set(pts)) < 4:
            continue
        pts.sort(key=lambda p: math.atan2(p[1], p[0]))
        hull = True
        for i in range(4):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % 4]
            cx, cy = pts[(i + 2) % 4]
            if (bx - ax) * (cy - ay) - (by - ay) * (cx - ax) <= 0:
                hull = False
        if hull:
            return PointSet.from_coords(pts)


def test_criterion_08_four_points_never_need_crossings():
    rng = random.Random(808)
    ok = True
    uncrossed = 0
    for _ in range(100):
        ps = _convex_quad(rng)
        free = mdst_exact(ps)
        constrained = mdst_exact(ps, SolverOptions(crossing_free=True))
        ok &= not tree_has_crossing(ps, constrained.best)
        ok &= _compare_reports(ps, free.best, free.report, constrained.best,
                               constrained.report) == 0
        for tree in enumerate_spanning_trees(4):
            if not tree_has_crossing(ps, tree):
                continue
            report = tree_dilation(ps, tree, 64)
            if _compare_reports(ps, tree, report, free.best, free.report) != 0:
                continue
            fixed = uncross_four(ps, tree)
            ok &= not tree_has_crossing(ps, fixed)
            fixed_report = tree_dilation(ps, fixed, 64)
            ok &= _compare_reports(ps, fixed, fixed_report, tree,
                                   report) <= 0
            uncrossed += 1
    announce(8, ok, f"crossing-free optimum certified on 100/100 convex "
                    f"quads; {uncrossed} crossing optima uncrossed no-worse")


def test_criterion_09_perturbation_bound():
    rng = random.Random(909)
    eps = Fraction(1, 1 << 40)
    checked = 0
    ok = True
    for _ in range(10):
        n = rng.randint(1, 3)
        g = build_gadget(PartitionInstance(random_weights(rng, n)))
        ps = g.points
        bound = Fraction(four(n + 6) * n) * eps
        half = {i for i in range(1, n + 1) if rng.random() < 0.5}
        tree = standard_tree(g, half)
        pairs = [(g.q2, g.p2), (g.q2, g.mirror(g.p2)),
                 (g.d(1), g.mirror(g.d(1)))]
        total = 8 * n + 8
        while len(pairs) < 8:
            u, v = rng.randrange(total), rng.randrange(total)
            if u != v:
                pairs.append(tuple(sorted((u, v))))
        base = {pair: pair_dilation(ps, tree, *pair, 80) for pair in pairs}
        d_indices = {g.d(i) for i in range(1, n + 1)}
        d_indices |= {g.mirror(j) for j in d_indices}
        for _ in range(10):
            pts = list(ps.points)
            for j in d_indices:
                dx = Fraction(rng.randint(-(1 << 39), 1 << 39), 1 << 80)
                dy = Fraction(rng.randint(-(1 << 39), 1 << 39), 1 << 80)
                pts[j] = Point(pts[j].x + dx, pts[j].y + dy)
            shaken = PointSet(pts)
            for pair in pairs:
                before = base[pair]
                after = pair_dilation(shaken, tree, *pair, 80)
                diff = abs((after.lo + after.hi) - (before.lo + before.hi)) / 2
                ok &= diff < bound
                checked += 1
    announce(9, ok, f"{checked} sampled pairs stay within 4^(n+6)*n*eps "
                    "under d-point shifts of eps = 2^-40")


def test_criterion_10_crossing_witness_search():
    found = witness_search_five(seed=10, budget=10 ** 7)
    if found is None:
        announce(10, True, "no witness found within the 10^7 budget "
                           "(search exhausted, nothing to verify)")
        return
    check = verify_crossing_witness(found)
    ok = check is not None
    if ok:
        ok &= len(check.critical) >= 3
        ok &= critical_path_structure(check)
        ok &= check.crossing_free_strictly_worse
        for tree in check.optimal_trees:
            ok &= tree_has_crossing(found, tree)
            ok &= check.critical <= set(tree.edges)
        pairs = crossing_edge_pairs(found, check.best_tree.edges)
        ok &= bool(pairs)
        ok &= all(not set(e1) & set(e2) for e1, e2 in pairs)
    announce(10, ok, "witness found and exhaustively verified: every "
                     "optimal tree crosses, >= 3 forced edges in a path, "
                     "crossing pair vertex-disjoint")
