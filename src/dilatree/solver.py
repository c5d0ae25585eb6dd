"""Exact minimum-dilation structures on small point sets.

Every search is one pipeline: complete structures go to the integer
screen `_RunningScreen`, which keeps the smallest upper bound seen so far
as its incumbent, and only the structures it cannot certify worse get a
certified report; `_first_minimum` picks the answer, so ties keep the
first structure offered.  `pruned` counts the cut search nodes plus the
structures the screen certified worse, in every mode.
Spanning trees are screened from one n x n table of integer (lo, hi)
path sums per search.  `_join` links two components of a partial tree
by an edge, writing the sums of every pair it connects, and refuses,
writing nothing, once such a pair lies above the incumbent; a complete
table is read by the screen row by row.  Spanning-tree search runs
branch-and-bound over edges sorted by length, including before
excluding, so its first complete tree is the greedy shortest-first one,
and each include is one `_join`.  An exhaustive enumeration over labeled
trees (Prüfer sequences, each decoded in an order that attaches one
leaf at a time) serves as the independent oracle.  Hamiltonian paths
and tours run a depth-first search over ordering prefixes that cuts a
prefix once integer lower bounds put one of its pairs above the
incumbent, or once it breaks a required edge, with path lengths from
exact integer prefix sums.
A local uncrossing exchange removes an edge crossing from a 4-point tree
without increasing its dilation, and a randomized search hunts for
5-point sets whose every optimal spanning tree has a crossing.
"""

from __future__ import annotations

import enum
import itertools
import math
import random
from dataclasses import dataclass
from functools import partial

from .dilation import (DilationReport, PointSet, Tree, critical_edges,
                       crossing_edge_pairs, tree_dilation, tree_exact,
                       tree_has_crossing, _critical_scan, _max_dilation,
                       _ratio_sign)
from .errors import (Infeasible, NotApplicable, NotCrossing, SizeTooLarge,
                     max_bits_cap)
from .exactgeom import Orientation, orientation
from .radical import SqrtSum

_ENUM_MAX = 9
_STRUCT_MAX = 13


class Mode(enum.Enum):
    TREE = "tree"
    PATH = "path"
    TOUR = "tour"


@dataclass(frozen=True)
class SolverOptions:
    mode: Mode = Mode.TREE
    crossing_free: bool = False
    required_edges: frozenset = frozenset()
    max_points: int = 9
    bits: int = 64
    enumeration_cap: int | None = None


@dataclass(frozen=True)
class SolverResult:
    best: object              # Tree, or an edge tuple for tours
    report: DilationReport
    trees_examined: int
    pruned: int


# ---------------------------------------------------------------------------
# exhaustive enumeration oracle


def _prufer_edges(n: int, seq):
    """The tree of Prüfer sequence `seq`, as (leaf, anchor) edges in build
    order: the edge left at the end of the decoding first, whose anchor
    is n - 1, then the leaves in reverse order of removal, so every
    anchor is already placed when its leaf joins.  A linear decode: `ptr`
    scans up for the smallest leaf, and a vertex that turns into a leaf
    below `ptr` is removed next."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    ptr = degree.index(1)
    leaf = ptr
    edges = []
    for x in seq:
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1 and x < ptr:
            leaf = x
        else:
            ptr = degree.index(1, ptr + 1)
            leaf = ptr
    edges.append((leaf, n - 1))
    edges.reverse()
    return edges


def enumerate_spanning_trees(n: int):
    """All n^(n-2) labeled spanning trees, each exactly once."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if n > _ENUM_MAX:
        raise SizeTooLarge(f"{n}^{n - 2} trees is beyond the enumeration "
                           f"guard of n <= {_ENUM_MAX}")
    for seq in itertools.product(range(n), repeat=n - 2):
        yield Tree(n, _prufer_edges(n, seq))


# ---------------------------------------------------------------------------
# certified comparison of two structures' dilations


def _compare_exact(rep_a, exact_a, rep_b, exact_b, cap):
    """Certified sign of rep_a's dilation minus rep_b's.

    `exact_x(u, v)` gives the exact (path length, |uv|) of a pair in that
    structure; it is read for the two witnesses only when the enclosures
    overlap."""
    if rep_a.value.hi < rep_b.value.lo:
        return -1
    if rep_a.value.lo > rep_b.value.hi:
        return 1
    return _ratio_sign(exact_a(*rep_a.witness), exact_b(*rep_b.witness), cap)


def _compare_reports(ps, tree_a, rep_a, tree_b, rep_b, cap):
    """Certified sign of Delta(tree_a) - Delta(tree_b)."""
    return _compare_exact(rep_a, tree_exact(ps, tree_a),
                          rep_b, tree_exact(ps, tree_b), cap)


def _first_minimum(reports, cap):
    """The first (structure, report, exact) of `reports` that no later one
    certifiably beats, so ties keep the earliest."""
    best = None
    for item in reports:
        if best is None or _compare_exact(item[1], item[2],
                                          best[1], best[2], cap) < 0:
            best = item
    return best


# ---------------------------------------------------------------------------
# branch-and-bound spanning tree search


class _DSU:
    """Union-find on a parent list, which it takes over."""

    __slots__ = ("parent",)

    def __init__(self, parent):
        self.parent = parent

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def _join(pairs, lens, u, v, limit, side_u, side_v):
    """Join two components of a partial tree by the edge uv in `pairs`,
    an n x n table of integer (lo, hi) path sums with (0, 0) on its
    diagonal.

    `side_u` lists the component holding u and `side_v` the one holding
    v, and `pairs` holds the path sums within each.  A pair x, y across
    them gets the path x .. u - v .. y, whose sums are those of x-u, of
    the edge's `lens` entry and of v-y.  When some new pair's lower sum
    exceeds `limit` (`_RunningScreen.limit`; None is no limit) nothing is
    written and False is returned; otherwise every new pair is written,
    both ways round, and True is returned."""
    elo, ehi = lens[u][v]
    row_u, row_v = pairs[u], pairs[v]
    if limit is not None:
        for x in side_u:
            xlo, lim = row_u[x][0] + elo, limit[x]
            for y in side_v:
                if xlo + row_v[y][0] > lim[y]:
                    return False
    for x in side_u:
        xlo, xhi = row_u[x]
        xlo += elo
        xhi += ehi
        row_x = pairs[x]
        for y in side_v:
            ylo, yhi = row_v[y]
            row_x[y] = pairs[y][x] = xlo + ylo, xhi + yhi
    return True


def mdst_exact(ps: PointSet, opts: SolverOptions = SolverOptions()) -> SolverResult:
    """Certified minimum-dilation spanning structure.

    Tree mode runs depth-first branch-and-bound over edges sorted by
    length, so its first complete tree is the greedy one and sets the
    screen's incumbent: forced edges (those critical at that incumbent)
    may never be excluded.  One pair-sum table is kept across the
    search: each include `_join`s the two components it connects, and
    the branch dies, with nothing written, as soon as a pair it connects
    certifiably exceeds the incumbent.  A pair's entry is rewritten
    whenever an include on the current path joins its ends, so a
    complete tree goes to the screen straight from the table.  A node
    whose forest the remaining candidates can no longer connect is cut
    too.  Path and tour mode search orderings (see
    `min_dilation_structure`).  In every mode, `max_points` bounds the
    input and `enumeration_cap` the complete trees, or complete feasible
    orderings, that are examined, and `pruned` counts the cut nodes plus
    the complete structures the screen certified worse.
    """
    n = ps.n
    if n > opts.max_points:
        raise SizeTooLarge(f"{n} points exceeds max_points={opts.max_points}")
    if opts.mode is not Mode.TREE:
        return _order_search(ps, opts)
    cap = max_bits_cap()
    screen = _RunningScreen(ps, 32)
    pairs = [[(0, 0)] * n for _ in range(n)]

    def join(comp, u, v, limit):
        """`_join` the components of u and v, labelled by `comp` (each
        vertex's label is a vertex of its component that labels itself,
        so `comp` is also a flat DSU parent list).  Returns the labels
        after the join, or None when `_join` refuses it."""
        cu, cv = comp[u], comp[v]
        side_v = [y for y in range(n) if comp[y] == cv]
        if not _join(pairs, screen.lens, u, v, limit,
                     [x for x in range(n) if comp[x] == cu], side_v):
            return None
        comp = comp[:]
        for y in side_v:
            comp[y] = cu
        return comp

    required = sorted(tuple(sorted(e)) for e in opts.required_edges)
    comp = list(range(n))
    for u, v in required:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad required edge ({u}, {v})")
        if comp[u] == comp[v]:
            raise ValueError("required_edges contain a cycle")
        comp = join(comp, u, v, None)
    crossing = opts.crossing_free and crossing_edge_pairs(ps, required)
    if crossing:
        raise Infeasible("required edges {} and {} cross".format(*crossing[0]))

    cands = sorted((e for e in itertools.combinations(range(n), 2)
                    if e not in set(required)),
                   key=lambda e: (ps.distance_sq(*e), e))
    forced = frozenset()
    cuts = 0

    def dfs(idx, comp, chosen):
        """Search the completions of `chosen`, labelled by `comp`, from
        candidate `idx` on.  Each include recurses and each exclude moves
        on in the loop, so the depth is at most the n - 1 edges of a
        tree."""
        nonlocal forced, cuts
        if len(chosen) == n - 1:
            if opts.enumeration_cap is not None and \
                    screen.count >= opts.enumeration_cap:
                raise SizeTooLarge("enumeration cap exceeded")
            screen.offer(tuple(chosen), lambda u, bits: pairs[u])
            if screen.count == 1:
                # required edges are no candidates, so only these can be
                # forced: every tree within the incumbent holds them
                forced = critical_edges(ps, *screen.bound, cap=cap)
            return
        # completion stays possible while idx <= last, the largest j
        # whose cands[j:] connect the forest; they join from the end
        probe, left, last = _DSU(comp[:]), n - len(chosen), idx - 1
        for j in range(len(cands) - 1, idx - 1, -1):
            left -= probe.union(*cands[j])
            if left == 1:
                last = j
                break
        for idx in range(idx, len(cands)):
            if idx > last:
                cuts += 1
                return
            e = cands[idx]
            u, v = e
            # include branch
            if comp[u] != comp[v] and not (
                    opts.crossing_free and
                    any(ps.edges_cross(e, c) for c in chosen)):
                nc = join(comp, u, v, screen.limit())
                if nc is not None:
                    chosen.append(e)
                    dfs(idx + 1, nc, chosen)
                    chosen.pop()
                else:
                    cuts += 1
            # exclude branch
            if e in forced:
                cuts += 1
                return

    dfs(0, comp, list(required))
    candidates = screen.survivors()
    if not candidates:
        raise Infeasible("no spanning tree satisfies the constraints")
    best, report, _ = _first_minimum(
        map(partial(_certify_tree, ps, opts.bits, cap), candidates), cap)
    return SolverResult(best=best, report=report, trees_examined=screen.count,
                        pruned=cuts + screen.count - len(candidates))


class _RunningScreen:
    """The integer screen over a stream of structures.

    It reads the enclosure table `ps.table(bits)`, `lens`, with every
    entry filled.  It keeps a running incumbent, `bound` = (num, den),
    the smallest upper bound on a dilation seen so far (1/0 is no bound
    yet).  `offer` takes a structure's table of integer (lo, hi) path
    sums, row by row, and drops the structure as soon as one pair's lower
    sum exceeds the incumbent.  Tree searches build that table pair by
    pair with `_join`, which checks each new pair against `limit` and so
    drops a tree before it is complete; `reject` counts such a tree.
    `survivors` filters the structures scanned in full once more against
    the final incumbent.  A dropped structure lies certifiably above the
    final incumbent too, so the survivors, in offering order, are those
    of scoring every structure fully.  `count` is the number of
    structures offered or rejected.
    """

    def __init__(self, ps, bits):
        self.bits = bits
        self.lens = ps.table(bits)
        for u, row in enumerate(self.lens):
            for v in range(u + 1, len(row)):
                if row[v] is None:
                    ps.dist_ints(u, v, bits)
        self.bound = (1, 0)
        self.count = 0
        # (lo_num, lo_den, key) of the structures scanned in full
        self._scored = []
        self._limit = None, None

    def offer(self, key, sums):
        self.count += 1
        lower = self.tighten(sums)
        if lower is not None:
            self._scored.append((*lower, key))

    def reject(self):
        """Count a structure dropped against `limit` before its offer."""
        self.count += 1

    def tighten(self, sums):
        """Screen a structure and lower the incumbent to its upper bound
        if that is smaller, without making it a survivor.

        `sums(u, bits)` encloses the path lengths from u to every vertex,
        a row of a pair-sum table.  Returns the structure's integer lower
        bound (num, den) on its dilation, or None as soon as one pair's
        lower bound exceeds the incumbent."""
        b_n, b_d = self.bound
        lo_n = lo_d = hi_n = hi_d = None
        n = len(self.lens)
        for u in range(n - 1):
            row, lens_u = sums(u, self.bits), self.lens[u]
            for v in range(u + 1, n):
                (dlo, dhi), (llo, lhi) = row[v], lens_u[v]
                if dlo * b_d > b_n * lhi:
                    return None
                if lo_n is None or dlo * lo_d > lo_n * lhi:
                    lo_n, lo_d = dlo, lhi
                if hi_n is None or dhi * hi_d > hi_n * llo:
                    hi_n, hi_d = dhi, llo
        if hi_n * b_d < b_n * hi_d:
            self.bound = hi_n, hi_d
        return lo_n, lo_d

    def limit(self):
        """The incumbent as a table, None before the first bound:
        limit[u][v] is the largest lower u-v path sum that leaves the pair
        at or below the incumbent, b_n * hi_uv // b_d."""
        b_n, b_d = self.bound
        if not b_d:
            return None
        if self._limit[0] != self.bound:
            self._limit = self.bound, [[b_n * hi // b_d for _, hi in row]
                                       for row in self.lens]
        return self._limit[1]

    def survivors(self):
        b_n, b_d = self.bound
        return [key for lo_n, lo_d, key in self._scored
                if lo_n * b_d <= b_n * lo_d]


def _screen_every_tree(ps, screen):
    """Offer all n^(n-2) labeled trees to `screen`, in Prüfer order.

    Each tree is built in one pair-sum table, reused from tree to tree,
    a leaf at a time in `_prufer_edges`' build order; a tree is
    `reject`ed as soon as a leaf's join exceeds the incumbent."""
    n = ps.n
    pairs = [[(0, 0)] * n for _ in range(n)]
    for seq in itertools.product(range(n), repeat=n - 2):
        edges = _prufer_edges(n, seq)
        limit, placed = screen.limit(), [n - 1]
        for leaf, anchor in edges:
            if not _join(pairs, screen.lens, anchor, leaf, limit, placed,
                         (leaf,)):
                screen.reject()
                break
            placed.append(leaf)
        else:
            screen.offer(edges, lambda u, bits: pairs[u])


def _certify_tree(ps, bits, cap, edges):
    """(tree, certified report, exact pair metric) of the tree on `edges`,
    as `_first_minimum` reads them."""
    tree = Tree(ps.n, edges)
    return tree, tree_dilation(ps, tree, bits, cap=cap), tree_exact(ps, tree)


def exhaustive_mdst(ps: PointSet, bits: int = 64) -> SolverResult:
    """Certified minimum over all labeled trees; the slow, simple oracle.

    Every Prüfer sequence is decoded in build order and its tree joined,
    a leaf at a time, in a table of integer path sums at 32 bits, which
    goes through the integer screen (`_RunningScreen`); a tree is dropped
    once a pair exceeds the incumbent.  Only the trees the screen cannot
    certify worse become validated `Tree`s and are separated exactly, so
    the answer, `trees_examined` and `pruned` are those of scoring every
    tree fully.
    """
    n = ps.n
    if n > _ENUM_MAX:
        raise SizeTooLarge(f"exhaustive oracle capped at {_ENUM_MAX} points")
    cap = max_bits_cap()
    screen = _RunningScreen(ps, 32)
    _screen_every_tree(ps, screen)
    candidates, count = screen.survivors(), screen.count
    best, report, _ = _first_minimum(
        map(partial(_certify_tree, ps, bits, cap), candidates), cap)
    return SolverResult(best=best, report=report, trees_examined=count,
                        pruned=count - len(candidates))


# ---------------------------------------------------------------------------
# Hamiltonian paths and tours


def _steps(order, closed):
    """Consecutive vertex pairs along `order`, back to the start if closed."""
    return zip(order, order[1:] + order[:1] if closed else order[1:])


def _order_edges(order, closed):
    return [tuple(sorted(e)) for e in _steps(order, closed)]


def _order_metric(ps, order, closed, cap):
    """Path metric of the Hamiltonian path through `order` or, if `closed`,
    of its tour, where a pair takes the shorter arc.

    Returns (sums, exact) as `_max_dilation` reads them: `sums(u, bits)`
    comes from exact integer prefix sums of `ps.table` entries along
    the order, and `exact(u, v)` from one list of exact prefix sums of
    `ps.exact_dist` along it, built on first use.  An arc is a prefix
    difference, and a tour's other arc is the total minus that arc.
    """
    prefixes = {}          # bits -> (total, prefix sum at each vertex)
    exact_prefix = []      # exact prefix sum at each position, then total

    def sums(u, bits):
        if bits not in prefixes:
            tab = ps.table(bits)
            at = [None] * len(order)
            at[order[0]] = lo, hi = 0, 0
            for a, b in _steps(order, closed):
                elo, ehi = tab[a][b] or ps.dist_ints(a, b, bits)
                lo += elo
                hi += ehi
                if at[b] is None:       # a tour's last step returns to 0
                    at[b] = lo, hi
            prefixes[bits] = (lo, hi), at
        (tlo, thi), at = prefixes[bits]
        ulo, uhi = at[u]
        row = [(abs(lo - ulo), abs(hi - uhi)) for lo, hi in at]
        if closed:
            row = [(min(lo, tlo - lo), min(hi, thi - hi)) for lo, hi in row]
        return row

    def exact(u, v):
        if not exact_prefix:
            exact_prefix.extend(itertools.accumulate(
                (ps.exact_dist(a, b) for a, b in _steps(order, closed)),
                initial=SqrtSum.zero()))
        i, j = sorted((order.index(u), order.index(v)))
        d = exact_prefix[j] - exact_prefix[i]
        if closed:
            other = exact_prefix[-1] - d
            if (other - d).sign(cap=cap) < 0:
                d = other
        return d, ps.exact_dist(u, v)

    return sums, exact


def _order_search(ps, opts):
    n = ps.n
    if n > _STRUCT_MAX:
        raise SizeTooLarge(f"path/tour search capped at {_STRUCT_MAX} points")
    if n < 3:
        raise ValueError("need at least three points")
    cap = max_bits_cap()
    closed = opts.mode is Mode.TOUR
    required = {tuple(sorted(e)) for e in opts.required_edges}
    partners = [set() for _ in range(n)]
    for u, v in required:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            raise ValueError(f"bad required edge ({u}, {v})")
        partners[u].add(v)
        partners[v].add(u)
    if any(len(p) > 2 for p in partners):
        raise Infeasible("a vertex has more than two required edges")
    screen = _RunningScreen(ps, 32)
    lo = [[lens[0] for lens in row] for row in screen.lens]

    def feasible(key):
        if not (required or opts.crossing_free):
            return True
        edges = _order_edges(key, closed)
        return required.issubset(edges) and not (
            opts.crossing_free and crossing_edge_pairs(ps, edges))

    # the incumbent starts at the best feasible nearest-neighbour ordering,
    # one from each start; it only bounds, so the survivors keep their order
    for start in range(n):
        seq, rest = [start], [v for v in range(n) if v != start]
        while rest:
            seq.append(min(rest, key=lo[seq[-1]].__getitem__))
            rest.remove(seq[-1])
        if closed:
            seq = seq[seq.index(0):] + seq[:seq.index(0)]
        if feasible(seq):
            screen.tighten(_order_metric(ps, tuple(seq), closed, cap)[0])

    order = [0] * n        # the prefix being extended, ...
    prefix = [0] * n       # the lower sums of its edges up to each vertex
    placed = [False] * n
    cuts = 0

    def cut(k, y, py):
        """Whether every completion of order[:k] + [y], whose lower prefix
        sum at y is py, has a pair through y certifiably above the
        incumbent: y and a placed u, or a placed u and an unplaced w."""
        limit = screen.limit()
        if limit is None:
            return False
        lo_y, lo_0 = lo[y], lo[order[0]]
        total = py + lo_y[order[0]]    # a tour is at least this long
        rest = [w for w in range(n) if not placed[w] and w != y]
        for u, pu in zip(order[:k], prefix):
            d, lim = py - pu, limit[u]
            if closed:
                # the other arc runs from y, or from w, through order[0] to u
                if d > lim[y] and total - d > lim[y] or any(
                        d + lo_y[w] > lim[w] and pu + lo_0[w] > lim[w]
                        for w in rest):
                    return True
            elif d > lim[y] or any(d + lo_y[w] > lim[w] for w in rest):
                return True
        return False

    def breaks_required(k, y):
        """Whether order[:k] + [y] fixes every neighbour of a vertex but
        not all of its required partners: order[k-1] (unless it starts a
        tour), and at the last position y and a tour's start."""
        fixed = []
        if k > 1:
            fixed.append((order[k - 1], {order[k - 2], y}))
        elif not closed:
            fixed.append((order[0], {y}))
        if k == n - 1:
            if closed:
                fixed += [(y, {order[k - 1], order[0]}),
                          (order[0], {order[1], y})]
            else:
                fixed.append((y, {order[k - 1]}))
        return any(not partners[x] <= nbrs for x, nbrs in fixed)

    def extend(k):
        nonlocal cuts
        if k == n:
            key = tuple(order)
            if key[1 if closed else 0] < key[-1] and feasible(key):
                if opts.enumeration_cap is not None and \
                        screen.count >= opts.enumeration_cap:
                    raise SizeTooLarge("enumeration cap exceeded")
                screen.offer(key, _order_metric(ps, key, closed, cap)[0])
            return
        for y in range(n):
            if placed[y]:
                continue
            py = prefix[k - 1] + lo[order[k - 1]][y]
            if required and breaks_required(k, y) or cut(k, y, py):
                cuts += 1
                continue
            order[k], prefix[k], placed[y] = y, py, True
            extend(k + 1)
            placed[y] = False

    for first in range(1 if closed else n):
        order[0], placed[first] = first, True
        extend(1)
        placed[first] = False
    candidates = screen.survivors()
    if not candidates:
        raise Infeasible("no ordering satisfies the constraints")

    def certify(order):
        sums, exact = _order_metric(ps, order, closed, cap)
        return order, _max_dilation(ps, sums, exact, opts.bits, cap), exact

    order, report, _ = _first_minimum(map(certify, candidates), cap)
    edges = _order_edges(order, closed)
    return SolverResult(best=tuple(sorted(edges)) if closed else Tree(n, edges),
                        report=report, trees_examined=screen.count,
                        pruned=cuts + screen.count - len(candidates))


def min_dilation_structure(ps: PointSet, mode: Mode, bits: int = 64,
                           *, _required=frozenset(),
                           _crossing_free=False) -> SolverResult:
    """Certified minimum-dilation Hamiltonian path (a `Tree`) or tour (its
    sorted edge tuple).

    Orderings, paths up to reversal and tours up to rotation and
    reflection, are built depth first in lexicographic order from integer
    enclosures of the lengths at 32 bits, which keep their precision
    relative to each length, so a set is screened alike at every scale.
    The incumbent starts at the best feasible nearest-neighbour ordering
    and follows the screen below.  A prefix is cut when some pair's lower
    path sum already exceeds the incumbent's upper bound times the pair's
    upper |uv|: a placed pair whose path the prefix fixes, or a placed u
    and an unplaced w, whose path runs on through the prefix's end.  On a tour a pair takes the
    shorter arc, so each bound is the smaller of its own and one through
    the tour's start.  A prefix is also cut once it fixes every neighbour
    of a vertex but not all of the vertex's required partners; a vertex
    with more than two required edges is `Infeasible` at once.  A cut
    ordering is infeasible or certifiably worse than a feasible one, so
    every exact optimum is reached.  Complete orderings
    that meet the constraints go through the integer screen that
    `exhaustive_mdst` uses.  Only the orderings the screen cannot certify
    worse get a certified report, from the same certified max over pairs
    as `tree_dilation`: tied pairs name the lexicographically smallest
    vertex pair, for tours as for trees.  Ties between orderings keep the
    lexicographically first.  `trees_examined` counts the complete
    feasible orderings that reach the screen, and `pruned` the cut
    prefixes plus the orderings the screen certified worse.
    """
    if mode is Mode.TREE:
        raise ValueError("use mdst_exact for tree mode")
    return _order_search(ps, SolverOptions(
        mode=mode, crossing_free=_crossing_free,
        required_edges=frozenset(_required), bits=bits))


# ---------------------------------------------------------------------------
# uncrossing exchange on four points


def uncross_four(ps: PointSet, t: Tree) -> Tree:
    """Remove the crossing from a 4-point tree without raising dilation.

    The crossing pair must be the two end edges of a path-shaped tree;
    the middle edge joins endpoints d (on one crossing edge) and c (on
    the other).  Whichever of the free endpoints sits closer to the
    opposite attachment gets reconnected there: both candidate exchanges
    shorten a tree edge, and the crossing inequality
    |ad| + |bc| > |ac| + |bd| guarantees at least one applies.  Squared
    lengths decide "closer" exactly, so no interval work is needed.
    """
    if ps.n != 4 or t.n != 4:
        raise ValueError("uncross_four expects exactly four points")
    crossings = crossing_edge_pairs(ps, t.edges)
    if not crossings:
        raise NotCrossing("tree has no properly crossing edge pair")
    x_edge, y_edge = crossings[0]
    # collinear-overlap "crossings" have no convex quadrilateral to work in
    o = [orientation(ps[x_edge[0]], ps[x_edge[1]], ps[y_edge[k]])
         for k in (0, 1)]
    if Orientation.COLLINEAR in o:
        raise NotApplicable("degenerate collinear crossing")
    z_edge = next(e for e in t.edges if e not in (x_edge, y_edge))
    zs = set(z_edge)
    d = (zs & set(x_edge)).pop()
    c = (zs & set(y_edge)).pop()
    a = (set(x_edge) - {d}).pop()
    b = (set(y_edge) - {c}).pop()
    if ps.distance_sq(b, d) <= ps.distance_sq(b, c):
        return t.replace_edge(y_edge, (b, d))
    if ps.distance_sq(a, c) <= ps.distance_sq(a, d):
        return t.replace_edge(x_edge, (a, c))
    raise NotApplicable("no shortening exchange exists")  # unreachable


# ---------------------------------------------------------------------------
# five-point crossing witness search


@dataclass(frozen=True)
class WitnessCheck:
    """Outcome of exhaustively verifying a 5-point crossing witness."""
    ps: PointSet
    best_tree: Tree
    report: DilationReport
    optimal_trees: tuple
    crossing_free_strictly_worse: bool
    critical: frozenset


def critical_path_structure(check: WitnessCheck) -> bool:
    """Whether the witness's critical edges form a path of length >= 3.

    This is the qualitative shape of the known 5-point examples: three
    or more consecutive forced edges, with the free point attached by an
    edge that crosses one of them.
    """
    crit = check.critical
    if len(crit) < 3:
        return False
    deg = {}
    for u, v in crit:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d > 2 for d in deg.values()):
        return False
    if len(crit) != len(deg) - 1:
        return False
    adj = {}
    for u, v in crit:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    start = next(iter(deg))
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return seen == set(deg)


def verify_crossing_witness(ps: PointSet, bits: int = 96) -> WitnessCheck | None:
    """Exhaustive certification that every optimal tree has a crossing.

    Returns the verification record when the minimum over all 125 trees
    is attained only by crossing trees and every crossing-free tree is
    certified strictly worse; None otherwise.  The trees go once through
    the integer screen at 48 bits, and only its survivors are certified
    at `bits`: the optimum is their first minimum, as in
    `exhaustive_mdst`, and the optimal trees those certified equal to it.
    """
    if ps.n != 5:
        raise ValueError("witness verification is defined for five points")
    cap = max_bits_cap()
    screen = _RunningScreen(ps, 48)
    _screen_every_tree(ps, screen)
    certified = [_certify_tree(ps, bits, cap, edges)
                 for edges in screen.survivors()]
    best_tree, best_rep, best_exact = _first_minimum(certified, cap)
    optimal = [tree for tree, rep, exact in certified
               if _compare_exact(rep, exact, best_rep, best_exact, cap) == 0]
    if not all(tree_has_crossing(ps, t) for t in optimal):
        return None
    crit = _critical_scan(ps, *best_exact(*best_rep.witness), 64, cap)
    # every other tree was certified strictly worse, by the integer screen
    # or by an exact sign, so in particular every crossing-free tree is
    return WitnessCheck(ps=ps, best_tree=best_tree, report=best_rep,
                        optimal_trees=tuple(optimal),
                        crossing_free_strictly_worse=True,
                        critical=crit)


_FIVE_TREES = tuple(enumerate_spanning_trees(5))
_PAIRS_FIVE = tuple(itertools.combinations(range(5), 2))
_PAIR_INDEX = {p: k for k, p in enumerate(_PAIRS_FIVE)}
# the 15 vertex-disjoint segment pairs a 5-point tree can cross in
_DISJOINT_SEGS = tuple(
    (e1, e2) for e1, e2 in itertools.combinations(_PAIRS_FIVE, 2)
    if not set(e1) & set(e2))
_DISJOINT_INDEX = {pair: k for k, pair in enumerate(_DISJOINT_SEGS)}


def _build_five_tables():
    tables = []
    for tree in _FIVE_TREES:
        paths = tuple(tuple(_PAIR_INDEX[e] for e in tree.path_edges(u, v))
                      for u, v in _PAIRS_FIVE)
        cross_idx = tuple(
            _DISJOINT_INDEX[tuple(sorted((e1, e2)))]
            for e1, e2 in itertools.combinations(tree.edges, 2)
            if not set(e1) & set(e2))
        tables.append((paths, cross_idx))
    return tuple(tables)


_FIVE_TABLES = _build_five_tables()


def _crossing_table(pts):
    flags = []
    for (a, b), (c, d) in _DISJOINT_SEGS:
        ax, ay = pts[a]
        bx, by = pts[b]
        cx, cy = pts[c]
        dx, dy = pts[d]
        abx, aby = bx - ax, by - ay
        o1 = abx * (cy - ay) - aby * (cx - ax)
        o2 = abx * (dy - ay) - aby * (dx - ax)
        cdx, cdy = dx - cx, dy - cy
        o3 = cdx * (ay - cy) - cdy * (ax - cx)
        o4 = cdx * (by - cy) - cdy * (bx - cx)
        flags.append(o1 * o2 < 0 and o3 * o4 < 0)
    return flags


def _float_margin_score(pts):
    """Best crossing-free dilation minus best crossing dilation.

    Positive means every (float-)optimal tree crosses itself; unlike
    "crossing-free minus overall" this is nonzero almost everywhere, so
    annealing has a slope to climb.
    """
    dist = [0.0] * len(_PAIRS_FIVE)
    for k, (u, v) in enumerate(_PAIRS_FIVE):
        dist[k] = math.hypot(pts[u][0] - pts[v][0], pts[u][1] - pts[v][1])
    cross = _crossing_table(pts)
    big = float("inf")
    best_cf = best_cross = big
    for paths, cross_idx in _FIVE_TABLES:
        crossing = any(cross[i] for i in cross_idx)
        limit = best_cross if crossing else best_cf
        worst = 1.0
        for k in range(10):
            plen = 0.0
            for ei in paths[k]:
                plen += dist[ei]
            r = plen / dist[k]
            if r > worst:
                worst = r
                if worst >= limit:
                    break
        if worst >= limit:
            continue
        if crossing:
            best_cross = worst
        else:
            best_cf = worst
    if best_cross == big or best_cf == big:
        return -1e9
    return best_cf - best_cross


def _seed_shape(rng):
    """Near-collinear 4-chain plus a far off-axis fifth point.

    The chain hugs a random ray with two of its points clustered near
    the origin end and the last far out; the fifth point sits well off
    to the side.  Uneven spacing matters: evenly spread chains almost
    always tie a crossing-free tree with the best crossing tree.
    """
    total = rng.randint(150, 320)
    theta = rng.uniform(0.2, 1.35) * rng.choice((1, -1))
    ux, uy = math.cos(theta), math.sin(theta)
    ts = (0, rng.randint(4, 14), rng.randint(6, 22), total)
    pts = []
    for t in ts:
        jx, jy = rng.randint(-2, 2), rng.randint(-2, 2)
        pts.append((round(t * ux) + jx, round(t * uy) + jy))
    off = rng.randint(total // 5, total // 2)
    along = rng.randint(-total // 8, total // 4)
    side = rng.choice((1, -1))
    pts.append((round(along * ux - side * off * uy),
                round(along * uy + side * off * ux)))
    return pts


def witness_search_five(seed: int, budget: int) -> PointSet | None:
    """Randomized hunt for a 5-point set forcing a crossing in every MDST.

    Integer-coordinate candidates evolve by single-point moves under
    simulated annealing on the crossing-optimum margin; any candidate
    whose float margin turns positive is handed to the exhaustive exact
    verifier.  Only witnesses whose critical edges form a >= 3-edge path
    are returned, so the result always exhibits the canonical structure.
    Returns None when the budget runs out.  Deterministic in
    (seed, budget).
    """
    if budget < 1:
        raise ValueError("budget must be at least one candidate")
    rng = random.Random(seed)
    evals = 0
    current = None
    current_score = -1e9
    temperature = 0.05
    since_improve = 0
    while evals < budget:
        if current is None or since_improve > 2000:
            current = _seed_shape(rng)
            current_score = _float_margin_score(current)
            evals += 1
            since_improve = 0
            temperature = 0.05
            continue
        proposal = list(current)
        k = rng.randrange(5)
        step = rng.choice((1, 1, 1, 2, 3))
        proposal[k] = (proposal[k][0] + rng.randint(-step, step),
                       proposal[k][1] + rng.randint(-step, step))
        if len(set(proposal)) < 5:
            continue
        evals += 1
        since_improve += 1
        score = _float_margin_score(proposal)
        if score > 1e-9:
            check = verify_crossing_witness(PointSet.from_coords(proposal))
            if check is not None and critical_path_structure(check):
                return check.ps
        if score > current_score:
            since_improve = 0
            current, current_score = proposal, score
        elif rng.random() < math.exp((score - current_score)
                                     / max(temperature, 1e-9)):
            current, current_score = proposal, score
        temperature *= 0.9995
    return None
