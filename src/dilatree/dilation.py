"""Certified dilation computations for trees over exact point sets.

The dilation of a pair (u, v) in a tree T is d_T(u, v) / |uv|, the ratio
of tree-path length to straight-line distance; the dilation of T is the
maximum over all pairs.  Neither quantity is rational in general, so every
comparison here is interval-certified: distances are enclosed in dyadic
intervals, path lengths are sums of enclosures, and verdicts are issued
only when intervals separate.  A comparison whose enclosures straddle
its boundary is settled by the certified sign of an exact
`radical.SqrtSum`, whose zero test is complete, so an exact equality (for
instance a pair sitting exactly on a threshold) terminates instead of
escalating forever.  The max over pairs makes that comparison only from
`_EXACT_FALLBACK_BITS` = 256 bits up, so it settles an exact tie only
under a precision cap of at least 256 bits; below that, and for a nonzero
difference too small for the cap, `PrecisionExhausted` is raised rather
than guessing.

Interval bookkeeping uses integer endpoints in one shared unit, so
accumulating a path is pure integer addition.  Coordinates are kept as
integer numerators over one common denominator `den`, and a distance is
enclosed as the square root of its squared numerator, which is at least
1 for distinct points, in the unit 2^-(bits+8)/den.  Every enclosure so
keeps `bits` of precision relative to its own length, at every scale of
the input, and the unit cancels from every ratio and every comparison of
sums; only `tree_path_length`, an absolute length, divides by it.  The
enclosures are kept in one n x n table per precision, `PointSet.table`,
which every scan fetches once and reads row by row in place;
`PointSet.dist_ints` runs only on an entry not yet filled.  A scan of
every pair of a tree reads each pair's path sum once, by lowest common
ancestor (after Agarwal et al., DCG 2008): `_tree_blocks` keeps one O(n)
array a of path sums from vertex 0, and a pair whose paths from 0 part at
c has the sum a_u + a_v - 2 a_c, exactly the integer sum of the table's
entries along its path, as the sums from 0 to c cancel.  `root_sums` sums
the table's entries along every path from one root, for the few pairs
read on their own.  The max over pairs compares ratio numerators on one
dyadic grid; only its report builds `Fraction`s.  No scan encloses every
pair.  The exact side mirrors this:
`PointSet.exact_dist` builds each pair's `SqrtSum` once, and `tree_exact`
sums them along tree paths, memoised per root, for every exact fallback.

Skip tests.  Before a pair's |uv| is enclosed, an exact integer test on
its squared numerator distance d2 tries to settle it, and a square root
is taken only where the test cannot.  At b bits `dist_ints` gives
llo > L (1 - 2^(1-b)) for the numerator distance L, L^2 = d2 * 2^(2b+16),
and (1 - 2^(1-b))^2 > 1 - 2^(2-b); so for integers A, B >= 0,
A^2 * 2^(b-2) <= B^2 * d2 * 2^(2b+16) * (2^(b-2) - 1) implies A <= B llo.
- The max over pairs (`_pair_ratios`, b = f) takes A = dhi * 2^f and
  B = best - 1: the pair's hi is then at most best - 1, below a lo
  already seen.
- `compare_to_threshold` (b = 64) takes A = Q dhi and B = P: the pair is
  certainly within P/Q.
- `_critical_scan` settles a detour u-w-v against (d/l)|uv|, for bounds
  dlo <= d <= dhi and llo <= l <= lhi, from the three squared distances.
  2 (|uw|^2 + |wv|^2) lhi^2 <= dlo^2 |uv|^2 means a short enough detour,
  since |uw| + |wv| <= sqrt(2 (|uw|^2 + |wv|^2)) by QM-AM; and
  4 llo^2 max(|uw|^2, |wv|^2) > (llo + dhi)^2 |uv|^2 means the detour
  exceeds, since the triangle inequality gives |uw| + |wv| >=
  2 max(|uw|, |wv|) - |uv|, and that is above (d/l)|uv|.  So a w past
  the detour window, 4 llo^2 |uw|^2 > (llo + dhi)^2 |uv|^2, a suffix of
  u's vertices by distance, is one the far test skips.  And as |uw| +
  |wv| <= |uv| + 2|uw|, a pair with dlo > lhi and 4 r^2 lhi^2 <=
  (dlo - lhi)^2 |uv|^2, r the distance from u (or v) to its nearest
  vertex but the other end, has a short enough detour: the pair filter.
  Both compare the exact squared numerators, so the window drops only
  the w the far test skips, and the filter only pairs not critical.

Straight trees.  A ratio is at least 1, and exactly 1 when the tree path
is a straight segment.  Every pair of a tree is straight exactly when it
is a path whose every vertex goes on from the step before it in its
direction, as `_straight_tree` decides in O(n) integer work.  Such a
tree's dilation is exactly 1: `tree_dilation` reports [1, 1] with witness
(0, 1), tied when there is more than one pair, and `compare_to_threshold`
answers AT_MOST, both with no enclosure and at every precision cap.
"""

from __future__ import annotations

import enum
import heapq
import itertools
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from operator import itemgetter

from .errors import PrecisionExhausted, max_bits_cap
from .exactgeom import Interval, Point, segments_cross_ints, sqrt_ints
from .radical import SqrtSum

_EXACT_FALLBACK_BITS = 256


def _scale_exp(bits: int) -> int:
    return bits + 8


def _dyadic(lo: int, hi: int, frac_bits: int, bits: int) -> Interval:
    """The interval [lo, hi] * 2^-frac_bits, recorded at `bits`."""
    return Interval(Fraction(lo, 1 << frac_bits), Fraction(hi, 1 << frac_bits),
                    bits)


class PointSet:
    """Finite set of distinct exact points with its distance enclosures.

    Coordinates are also kept as integer numerators over one common
    denominator `den` (1 for integer inputs), so a squared distance is an
    integer numerator over den^2.  Square-root enclosures come from
    `sqrt_ints` on the numerator alone, as integer endpoint pairs
    (lo, hi) in the unit 2^-(bits+8)/den.  Each precision level has one
    n x n table of them, `table(bits)`: symmetric, (0, 0) on the diagonal
    and None where a pair is not enclosed yet.  A scan fetches the table
    once, reads its rows in place and calls `dist_ints` only on a None,
    which encloses the pair and fills both of its entries.  The exact
    length of a pair, a `SqrtSum`, is cached next to them.
    """

    def __init__(self, points, labels=None):
        pts = tuple(points)
        den = lcm(*(c.denominator for p in pts for c in (p.x, p.y)))
        self._setup([(p.x.numerator * (den // p.x.denominator),
                      p.y.numerator * (den // p.y.denominator))
                     for p in pts], den, labels)
        self._points = pts

    @classmethod
    def from_coords(cls, coords, labels=None):
        return cls([Point(Fraction(x), Fraction(y)) for x, y in coords], labels)

    @classmethod
    def from_ints(cls, xy, den, labels=None):
        """The points (x/den, y/den) of the integer pairs `xy`, for a
        positive den; `den` is reduced to the lowest common denominator,
        as the Point constructor finds it.  The `Point`s themselves are
        built on first use."""
        if den < 1:
            raise ValueError("denominator must be positive")
        xy = [(x, y) for x, y in xy]
        g = gcd(den, *(c for p in xy for c in p)) if den > 1 else 1
        if g > 1:
            den //= g
            xy = [(x // g, y // g) for x, y in xy]
        self = cls.__new__(cls)
        self._setup(xy, den, labels)
        self._points = None
        return self

    def _setup(self, xy, den, labels):
        if len(xy) < 2:
            raise ValueError("point set needs at least two points")
        # over one denominator, points are equal exactly when their
        # numerators are, and integer pairs hash far faster than Fractions
        if len(set(xy)) != len(xy):
            raise ValueError("points must be pairwise distinct")
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != len(xy):
                raise ValueError("labels must match points one to one")
        self._xy = xy
        self._labels = labels
        self.den = den
        self._tables: dict[int, list[list]] = {}
        self._exact: dict[tuple[int, int], SqrtSum] = {}

    @property
    def points(self):
        if self._points is None:
            den = self.den
            self._points = tuple(Point(Fraction(x, den), Fraction(y, den))
                                 for x, y in self._xy)
        return self._points

    @property
    def numerators(self) -> list[tuple[int, int]]:
        """The coordinates as integer (x, y) pairs over `den`; read only."""
        return self._xy

    @property
    def labels(self):
        return self._labels

    def __len__(self):
        return len(self._xy)

    def __getitem__(self, i) -> Point:
        return self.points[i]

    @property
    def n(self) -> int:
        return len(self._xy)

    def _d2_num(self, i: int, j: int) -> int:
        (xi, yi), (xj, yj) = self._xy[i], self._xy[j]
        return (xi - xj) ** 2 + (yi - yj) ** 2

    def distance_sq(self, i: int, j: int) -> Fraction:
        return Fraction(self._d2_num(i, j), self.den ** 2)

    def table(self, bits: int) -> list[list]:
        """The enclosure table at `bits`: entry [i][j] is `dist_ints(i, j,
        bits)` once enclosed, None before; (0, 0) on the diagonal."""
        tab = self._tables.get(bits)
        if tab is None:
            if bits < 1:
                raise ValueError("bits must be positive")
            n = len(self._xy)
            tab = [[None] * n for _ in range(n)]
            for i in range(n):
                tab[i][i] = (0, 0)
            self._tables[bits] = tab
        return tab

    def dist_ints(self, i: int, j: int, bits: int) -> tuple[int, int]:
        """Integer enclosure (lo, hi) of |p_i p_j| in the unit
        2^-(bits+8)/den, read from `table(bits)` and written to both of its
        entries on a miss."""
        tab = self.table(bits)
        cached = tab[i][j]
        if cached is not None:
            return cached
        s, t, exact = sqrt_ints(self._d2_num(i, j), 1, bits)
        # [s, s+1] / 2^t rescaled to 2^-(bits+8), exactly: the numerator
        # distance is at least 1, so t <= bits and the shift is at least 8
        shift = _scale_exp(bits) - t
        lo, hi = s << shift, (s if exact else s + 1) << shift
        tab[i][j] = tab[j][i] = lo, hi
        return lo, hi

    def edges_cross(self, e, f) -> bool:
        """`segments_properly_cross` of the segments on vertex pairs e and
        f, False when they share a vertex, decided by `segments_cross_ints`
        on the integer numerators."""
        if e[0] in f or e[1] in f:
            return False
        xy = self._xy
        return segments_cross_ints(xy[e[0]], xy[e[1]], xy[f[0]], xy[f[1]])

    def exact_dist(self, i: int, j: int) -> SqrtSum:
        """|p_i p_j| as an exact `SqrtSum`, built once per pair."""
        key = (i, j) if i < j else (j, i)
        if key not in self._exact:
            self._exact[key] = SqrtSum.sqrt_of(self.distance_sq(i, j))
        return self._exact[key]


class Tree:
    """Spanning tree on vertices 0..n-1, validated at construction."""

    __slots__ = ("n", "edges", "_edge_set", "_adj", "_parents")

    def __init__(self, n: int, edges):
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            norm.append((u, v) if u < v else (v, u))
        norm.sort()
        if len(norm) != n - 1:
            raise ValueError(f"spanning tree on {n} vertices needs {n - 1} "
                             f"edges, got {len(norm)}")
        if len(set(norm)) != len(norm):
            raise ValueError("duplicate edge")
        self.n = n
        self.edges = tuple(norm)
        self._edge_set = frozenset(norm)
        self._adj = _graph_adjacency(n, norm)
        self._parents: dict[int, list[int]] = {}
        # n-1 distinct edges + connected == tree
        if -1 in self.parents_from(0):
            raise ValueError("edges do not connect all vertices")

    def adjacency(self):
        return self._adj

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._edge_set

    def parents_from(self, root: int):
        par = self._parents.get(root)
        if par is None:
            par = [-1] * self.n
            par[root] = root
            stack = [root]
            while stack:
                x = stack.pop()
                for y in self._adj[x]:
                    if par[y] == -1:
                        par[y] = x
                        stack.append(y)
            self._parents[root] = par
        return par

    def path_vertices(self, u: int, v: int):
        """Vertices along the unique u-v path, endpoints included."""
        par = self.parents_from(u)
        path = [v]
        while path[-1] != u:
            path.append(par[path[-1]])
        path.reverse()
        return path

    def path_edges(self, u: int, v: int):
        path = self.path_vertices(u, v)
        return [(a, b) if a < b else (b, a)
                for a, b in zip(path, path[1:])]

    def replace_edge(self, old, new) -> "Tree":
        old = tuple(sorted(old))
        new = tuple(sorted(new))
        if old not in self.edges:
            raise ValueError(f"edge {old} not in tree")
        return Tree(self.n, [new if e == old else e for e in self.edges])

    def __eq__(self, other):
        return isinstance(other, Tree) and (self.n, self.edges) == (other.n, other.edges)

    def __hash__(self):
        return hash((self.n, self.edges))

    def __repr__(self):
        return f"Tree(n={self.n}, edges={list(self.edges)})"


class Verdict(enum.Enum):
    AT_MOST = "at_most"
    GREATER = "greater"


@dataclass(frozen=True)
class DilationReport:
    value: Interval
    witness: tuple[int, int] | None
    precision_used: int
    tied: bool = False


# ---------------------------------------------------------------------------
# path length and pair dilation


def root_sums(ps: PointSet, adj, root: int, bits: int):
    """Integer (lo, hi) path-length enclosures from `root`, by one DFS.

    `adj` is a tree or forest adjacency (iterables of neighbours).  Entry
    v is the sum of the `ps.table(bits)` entries over the root-v path, in
    the table's unit 2^-(bits+8)/den: (0, 0) at the root, None where v is
    not reachable."""
    sums = [None] * len(adj)
    sums[root] = (0, 0)
    stack = [root]
    tab = ps.table(bits)
    while stack:
        x = stack.pop()
        xlo, xhi = sums[x]
        row = tab[x]
        for y in adj[x]:
            if sums[y] is None:
                elo, ehi = row[y] or ps.dist_ints(x, y, bits)
                sums[y] = (xlo + elo, xhi + ehi)
                stack.append(y)
    return sums


def _tree_blocks(ps: PointSet, tree: Tree, q: int, bits: int):
    """Every pair of `tree` once, as blocks by lowest common ancestor.

    lo[v] and hi[v] are q times the sum of the `ps.table(bits)` entries
    over the path from vertex 0 to v.  Yields a block (c, left, right, lo,
    hi) for every vertex x but 0, in a preorder from vertex 0, with c the
    parent of x: `left` is the preorder run from c up to x, c and the
    subtrees of its earlier children, and `right` is x's subtree.  A pair
    (u, v) is in exactly one block, that of the child of its lowest common
    ancestor c on the path to its later vertex in the preorder, and its
    sums are lo[u] + lo[v] - 2 lo[c] and likewise for hi: q times the
    integers `root_sums` gives, as the path from 0 to c cancels exactly.
    The scan keeps O(n) lists, whatever the shape of the tree."""
    n, adj, par, tab = tree.n, tree.adjacency(), tree.parents_from(0), \
        ps.table(bits)
    lo, hi, at, size = [0] * n, [0] * n, [0] * n, [1] * n
    order, stack = [], [0]
    while stack:
        x = stack.pop()
        p, at[x] = par[x], len(order)
        order.append(x)
        elo, ehi = tab[x][p] or ps.dist_ints(x, p, bits)  # (0, 0) at 0
        lo[x], hi[x] = lo[p] + q * elo, hi[p] + q * ehi
        for y in reversed(adj[x]):
            if y != p:
                stack.append(y)
    for x in order[:0:-1]:
        size[par[x]] += size[x]
    for i in range(1, n):
        x = order[i]
        c = par[x]
        yield c, order[at[c]:i], order[i:i + size[x]], lo, hi


def _row_blocks(sums, pairs, bits):
    """The blocks (u, (u,), vs, lo, hi) of `pairs`, in the format of
    `_tree_blocks`, by first vertex u in sorted order: lo and hi are the
    ends of the row `sums(u, bits)`, whose entry at u is (0, 0)."""
    for u, group in itertools.groupby(sorted(pairs), itemgetter(0)):
        yield u, (u,), [v for _, v in group], *zip(*sums(u, bits))


def _check_tree(ps: PointSet, tree: Tree, *vertices):
    """ValueError unless `tree` spans `ps` and each vertex is in 0..n-1."""
    if tree.n != ps.n:
        raise ValueError("tree and point set sizes differ")
    for v in vertices:
        if not 0 <= v < ps.n:
            raise ValueError(f"vertex {v} out of range for n={ps.n}")


def tree_path_length(ps: PointSet, tree: Tree, u: int, v: int,
                     bits: int) -> Interval:
    """Enclosure of the tree-path length between u and v."""
    _check_tree(ps, tree, u, v)
    lo, hi = root_sums(ps, tree.adjacency(), u, bits)[v]
    unit = ps.den << _scale_exp(bits)
    return Interval(Fraction(lo, unit), Fraction(hi, unit), bits)


def pair_dilation(ps: PointSet, tree: Tree, u: int, v: int,
                  bits: int) -> Interval:
    """Dyadic enclosure of d_T(u, v) / |uv| with relative width ~2^-bits."""
    _check_tree(ps, tree, u, v)
    if u == v:
        raise ValueError("pair must be two distinct vertices")
    if bits < 1:
        raise ValueError("bits must be positive")
    pair = (u, v) if u < v else (v, u)
    sums = partial(root_sums, ps, tree.adjacency())
    lo, hi = _pair_ratios(ps, partial(_row_blocks, sums, [pair]), bits)[pair]
    return _dyadic(lo, hi, bits + 4, bits)


def _pair_ratios(ps, blocks, bits):
    """Dilation enclosures at `bits` of the pairs in `blocks`, keyed by
    pair (u, v), u < v, as integer numerators (lo, hi) on the grid
    2^-(bits+4).

    `blocks(bits + 4)` yields blocks (c, left, right, lo, hi), as
    `_tree_blocks` gives every pair of a tree and `_row_blocks` some
    pairs from rows: each pair (u, v), u in left and v in right, has the
    integer path-length enclosure lo[u] + lo[v] - 2 lo[c], and likewise
    hi, at bits + 4: the exact integer sums along its path, as the common
    part up to c cancels.  The pair's lo is the floor of dlo/lhi and hi
    the ceil of dhi/llo on the grid, the shared unit of the enclosures
    cancelling; dlo is formed only for a pair the skip tests keep.

    A pair is left out when its hi is below `best`, the largest lo of the
    pairs read before it: by the module's skip test, with no square root
    taken, while its |uv| is not enclosed yet, and by one product once it
    is.  Such a pair can neither raise the maximum of lo nor reach it, so
    `_max_dilation` keeps exactly the survivors, the maximum and the
    witness it would keep with the pair in, in whatever order the blocks
    come.  Every pair is kept until some lo is positive."""
    f = bits + 4
    tab, dist_ints, (xs, ys) = ps.table(f), ps.dist_ints, zip(*ps._xy)
    margin = ((1 << (f - 2)) - 1) << 16
    enc = {}
    best, cut = 0, -1
    for c, left, right, lo, hi in blocks(f):
        lc, hc = 2 * lo[c], 2 * hi[c]
        for u in left:
            lens, xu, yu, au, bu = tab[u], xs[u], ys[u], lo[u] - lc, hi[u] - hc
            for v in right:
                dhi, length = bu + hi[v], lens[v]
                if length is None:
                    dx, dy = xs[v] - xu, ys[v] - yu
                    if (dhi * dhi) << (f - 2) <= cut * (dx * dx + dy * dy):
                        continue
                    length = dist_ints(u, v, f)
                llo, lhi = length
                if dhi << f <= (best - 1) * llo:
                    continue        # hi = ceil(dhi 2^f / llo) < best
                r = ((au + lo[v]) << f) // lhi
                enc[(u, v) if u < v else (v, u)] = r, -((-dhi << f) // llo)
                if r > best:
                    best, cut = r, (r - 1) ** 2 * margin
    return enc


# ---------------------------------------------------------------------------
# exact symbolic forms, for ties and boundary hits


def _straight_tree(ps: PointSet, tree: Tree) -> bool:
    """True when every pair of `tree` has a straight path, ratio exactly 1:
    the tree is a path and, walked from an end, each vertex c goes on from
    the step a -> b before it, cross(b - a, c - b) = 0 < dot(b - a, c - b)
    (b is inside ac).  O(n) integer work, to the first degree 3 or bend."""
    adj = tree.adjacency()
    if any(len(nb) > 2 for nb in adj):
        return False
    end = next(v for v, nb in enumerate(adj) if len(nb) == 1)
    par, xy = tree.parents_from(end), ps._xy
    for c, b in enumerate(par):
        (ax, ay), (bx, by), (cx, cy) = xy[par[b]], xy[b], xy[c]
        dx, dy, ex, ey = bx - ax, by - ay, cx - bx, cy - by
        if b != end and (dx * ey != dy * ex or dx * ex + dy * ey <= 0):
            return False
    return True


def tree_exact(ps: PointSet, tree: Tree):
    """The exact twin of `root_sums`: `exact(u, v)` gives the exact
    (d_T(u, v), |uv|) of a pair.  Sums d_T(u, .) are memoised per root: a
    pair walks up `tree.parents_from(u)` only to the nearest vertex with a
    known sum, so once its parent's sum is known it costs one addition."""
    rows = {}

    def exact(u, v):
        par = tree.parents_from(u)
        row, walk, x = rows.setdefault(u, {u: SqrtSum.zero()}), [], v
        while x not in row:
            walk.append(x)
            x = par[x]
        for y in reversed(walk):
            row[y] = row[x] + ps.exact_dist(x, y)
            x = y
        return row[v], ps.exact_dist(u, v)

    return exact


def _ratio_sign(a, b) -> int:
    """Certified sign of d_a/l_a - d_b/l_b for exact pairs (d, l)."""
    (da, la), (db, lb) = a, b
    return (da * lb - db * la).sign()


# ---------------------------------------------------------------------------
# threshold comparison


def compare_to_threshold(ps: PointSet, tree: Tree, p_num: int,
                         q_den: int) -> Verdict:
    """Certified verdict of Delta(T) <= P/Q.

    Scans every pair once at 64 bits, in the blocks of `_tree_blocks` by
    lowest common ancestor, over root sums with Q multiplied in once, so
    that a pair's Q d_T(u, v) enclosure is two additions.  It settles
    only pairs whose enclosures straddle the threshold, by the exact sign
    of Q d_T(u, v) - P |uv|, in sorted pair order; a pair certified
    strictly above P/Q settles the whole tree immediately.  A tree that
    `_straight_tree` accepts has dilation 1: AT_MOST, no scan.

    A pair whose |uv| is not enclosed yet is left out, with no square
    root taken, when the module's skip test shows Q dhi <= P llo: such a
    pair is neither above P/Q nor undecided.  Each test is the pair's
    own, so the verdict and the pairs sent to the exact sign are those of
    the full scan, in whatever order the blocks come.
    """
    if q_den < 1 or p_num < q_den:
        raise ValueError("threshold must satisfy P/Q >= 1 with Q >= 1")
    _check_tree(ps, tree)
    if _straight_tree(ps, tree):
        return Verdict.AT_MOST      # Delta(T) = 1 <= P/Q
    tab, (xs, ys) = ps.table(64), zip(*ps._xy)
    cut = p_num * p_num * ((1 << 62) - 1) << 144
    undecided = []
    for c, left, right, lo, hi in _tree_blocks(ps, tree, q_den, 64):
        lc, hc = 2 * lo[c], 2 * hi[c]
        for u in left:
            lens, xu, yu, au, bu = tab[u], xs[u], ys[u], lo[u] - lc, hi[u] - hc
            for v in right:
                dhi, length = bu + hi[v], lens[v]
                if length is None:
                    dx, dy = xs[v] - xu, ys[v] - yu
                    if (dhi * dhi) << 62 <= cut * (dx * dx + dy * dy):
                        continue
                    length = ps.dist_ints(u, v, 64)
                llo, lhi = length
                if au + lo[v] > p_num * lhi:
                    return Verdict.GREATER
                if dhi > p_num * llo:
                    undecided.append((u, v) if u < v else (v, u))
    undecided.sort()
    exact = tree_exact(ps, tree)
    for u, v in undecided:
        d, length = exact(u, v)
        try:
            sign = (d.scale(q_den) - length.scale(p_num)).sign(start_bits=128)
        except PrecisionExhausted as exc:
            raise PrecisionExhausted(
                f"dilation of pair {(u, v)} against {p_num}/{q_den} "
                f"undecided at {exc.bits} bits",
                bits=exc.bits, context=(u, v)) from exc
        if sign > 0:
            return Verdict.GREATER
    return Verdict.AT_MOST


# ---------------------------------------------------------------------------
# tree dilation with witness separation


def tree_dilation(ps: PointSet, tree: Tree, bits: int) -> DilationReport:
    """Enclose Delta(T) and name a pair attaining it.

    The maximum is certified by `_max_dilation`: genuinely equal maxima
    are reported with `tied` set and the lexicographically smallest
    witness.  A tree that `_straight_tree` accepts is reported as exactly
    [1, 1] at the first rung's precision, with no enclosure.
    """
    _check_tree(ps, tree)
    if bits < 1 or not _straight_tree(ps, tree):   # bits < 1 raises there
        return _max_dilation(ps, partial(_tree_blocks, ps, tree, 1),
                             partial(root_sums, ps, tree.adjacency()),
                             tree_exact(ps, tree), bits)
    one = Fraction(1)
    return DilationReport(Interval(one, one, bits), (0, 1),
                          max(bits + 4, 64), tied=ps.n > 2)


def _max_dilation(ps, every, sums, exact, bits: int) -> DilationReport:
    """Enclose the largest pair dilation of a structure on `ps` and name a
    pair attaining it.

    The structure is given by its path metric: `every(bits)` yields the
    integer path-length enclosures of every pair once, as blocks (c, left,
    right, lo, hi) that `_pair_ratios` reads, as `_tree_blocks` does for a
    tree by lowest common ancestor; `sums(u, bits)` encloses the path
    lengths from u to every vertex, as `root_sums` does, and `exact(u, v)`
    gives the exact (path length, |uv|) of a pair, as `tree_exact` does.
    The maximum is located by refining only the pairs whose enclosures
    still overlap the running lower bound.  A rung whose survivors are
    still every pair reads `every`; one on fewer reads their rows of
    `sums`, in the same block format.  When the final survivors cannot be
    separated numerically they are compared symbolically, from
    `_EXACT_FALLBACK_BITS` up; genuinely equal maxima are reported with
    `tied` set and the lexicographically smallest witness.
    `PrecisionExhausted` at the cap names the surviving pairs, all of them
    in its `context`.
    """
    if bits < 1:
        raise ValueError("bits must be positive")
    cap = max_bits_cap()
    work = max(bits + 4, 64)
    enc = _pair_ratios(ps, every, work)
    pairs_in_all = ps.n * (ps.n - 1) // 2
    tied = False
    while True:
        # integer numerators on the grid 2^-(work+4)
        lo = max(e[0] for e in enc.values())
        survivors = {pq: e for pq, e in enc.items() if e[1] >= lo}
        hi = max(e[1] for e in survivors.values())
        if len(survivors) == 1:
            break
        cause = None
        if (hi - lo) << (bits - 1) <= hi and work >= _EXACT_FALLBACK_BITS:
            # numeric refinement has stalled: separate survivors exactly
            order = sorted(survivors)
            try:
                best, top = [order[0]], exact(*order[0])
                for pq in order[1:]:
                    cand = exact(*pq)
                    sign = _ratio_sign(cand, top)
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
        enc = _pair_ratios(ps, every if len(survivors) == pairs_in_all
                           else partial(_row_blocks, sums, survivors), work)

    return DilationReport(value=_dyadic(lo, hi, work + 4, bits),
                          witness=min(survivors), precision_used=work,
                          tied=tied)


# ---------------------------------------------------------------------------
# critical edges


def critical_edges(ps: PointSet, p_num: int, q_den: int) -> frozenset:
    """Pairs (u, v) whose every one-stop detour strictly exceeds (P/Q)|uv|.

    Such an edge is forced into any spanning tree whose dilation stays
    within P/Q: routing u to v through any other vertex already overshoots.
    """
    if q_den < 1 or p_num < 1:
        raise ValueError("threshold must be a positive rational P/Q")
    return _critical_scan(ps, SqrtSum.rational(p_num),
                          SqrtSum.rational(q_den), 64)


def _critical_scan(ps: PointSet, d: SqrtSum, length: SqrtSum,
                   bits: int) -> frozenset:
    """Pairs (u, v) with (d/length)|uv| < |uw| + |wv| for every other w.

    Each triple is screened against integer bounds dlo/dhi on d and
    llo/lhi on `length` (exactly P and Q for a rational P/Q), first by
    the module's detour tests on the exact squared numerator distances,
    with no square root.  A triple neither test settles is screened with
    the integer enclosures at `bits`, |uv| enclosed only once a triple of
    the pair gets there; only a triple that screen cannot settle gets an
    exact sign.  Only the pairs the module's pair filter keeps and the w
    in u's detour window are visited, in index order as by a full scan.
    """
    ends = d.eval_interval(bits), length.eval_interval(bits)
    scale = lcm(*(x.denominator for iv in ends for x in (iv.lo, iv.hi)))
    (dlo, dhi), (llo, lhi) = ((int(iv.lo * scale), int(iv.hi * scale))
                              for iv in ends)
    short, far = 2 * lhi * lhi, 4 * llo * llo
    near_k, far_k = dlo * dlo, (llo + dhi) ** 2
    tab, dist_ints, exact = ps.table(bits), ps.dist_ints, ps.exact_dist
    n, sq = ps.n, []
    # the pair filter: reach * r^2 <= gap * uv2 certifies a short detour;
    # off at d/l <= 1, and with no third vertex to detour through
    reach, gap = 4 * lhi * lhi, (dlo - lhi) ** 2 if dlo > lhi and n > 2 else 0
    for u, (xu, yu) in enumerate(ps._xy):
        # squared numerator distances from u; those to earlier vertices
        # are already in their rows
        sq.append([row[u] for row in sq] + [(x - xu) ** 2 + (y - yu) ** 2
                                            for x, y in ps._xy[u:]])
    # each row's vertices by distance, u first: keys[u][1] is r_u^2
    orders = [sorted(range(n), key=row.__getitem__) for row in sq]
    keys = [list(map(row.__getitem__, o)) for row, o in zip(sq, orders)]
    out = []
    for u in range(n - 1):
        row_u, sq_u, key_u, order_u = tab[u], sq[u], keys[u], orders[u]
        # a pair kept has gap * uv2 < reach * r^2 <= reach * key_u[2]
        top = bisect_left(key_u, -(-reach * key_u[2] // gap)) if gap else n
        for v in sorted(v for v in order_u[1:top] if v > u):
            row_v, sq_v, uv2 = tab[v], sq[v], sq_u[v]
            # r^2 at each end: its nearest's, its second's if uv2 ties it
            if gap and reach * min(k[2] if k[1] == uv2 else k[1]
                                   for k in (key_u, keys[v])) <= gap * uv2:
                continue
            near, beyond = near_k * uv2, far_k * uv2
            uv_lo = None
            top = bisect_right(key_u, beyond // far)
            for w in sorted(order_u[:top]):
                if w == u or w == v:
                    continue
                uw2, wv2 = sq_u[w], sq_v[w]
                if short * (uw2 + wv2) <= near:
                    break           # w certainly gives a short enough one
                if far * (uw2 if uw2 > wv2 else wv2) > beyond:
                    continue        # the detour via w certainly exceeds
                if uv_lo is None:
                    uv_lo, uv_hi = row_u[v] or dist_ints(u, v, bits)
                uw_lo, uw_hi = row_u[w] or dist_ints(u, w, bits)
                wv_lo, wv_hi = row_v[w] or dist_ints(w, v, bits)
                if dhi * uv_hi < llo * (uw_lo + wv_lo):
                    continue        # the detour via w certainly exceeds
                if dlo * uv_lo >= lhi * (uw_hi + wv_hi):
                    break           # w certainly gives a short enough one
                try:
                    sign = _ratio_sign(
                        (exact(u, w) + exact(w, v), exact(u, v)), (d, length))
                except PrecisionExhausted as exc:
                    raise PrecisionExhausted(
                        f"detour {(u, v, w)} against {d!r}/{length!r} "
                        f"undecided at {exc.bits} bits",
                        bits=exc.bits, context=(u, v, w)) from exc
                if sign <= 0:
                    break
            else:
                out.append((u, v))
    return frozenset(out)


# ---------------------------------------------------------------------------
# crossings


def tree_has_crossing(ps: PointSet, tree: Tree) -> bool:
    """True iff some two non-adjacent tree edges properly cross."""
    return bool(crossing_edge_pairs(ps, tree.edges))


def crossing_edge_pairs(ps: PointSet, edges):
    """All properly-crossing pairs among the given edges."""
    return [(e, f) for e, f in itertools.combinations(edges, 2)
            if ps.edges_cross(e, f)]


# ---------------------------------------------------------------------------
# graph dilation bounds (supergraph monotonicity checks)


def _shortest_sums(ps: PointSet, adj, source: int, bits: int, end: int):
    """Integer Dijkstra from `source` over endpoint `end` (0 lower, 1 upper)
    of the `ps.table(bits)` edge enclosures, in the unit `root_sums`
    uses; None where a vertex is not reachable."""
    tab = ps.table(bits)
    dist = [None] * len(adj)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        row = tab[x]
        for y in adj[x]:
            nd = d + (row[y] or ps.dist_ints(x, y, bits))[end]
            if dist[y] is None or nd < dist[y]:
                dist[y] = nd
                heapq.heappush(heap, (nd, y))
    return dist


def _repair_sums(ps: PointSet, adj, sums, u: int, v: int, bits: int):
    """The lower sums of `_shortest_sums` after the edge (u, v) left
    `adj`, repaired from `sums`, the lower sums from the same source
    before, and returned with the set of vertices whose sum changed.

    The lower lengths are positive integers, so an edge is tight, on a
    shortest path, exactly when a sum plus its length equals the sum at
    its other end.  A vertex changes exactly when every tight edge into it
    comes from a changed vertex or was the removed one, and then its sum
    strictly grows, or it is cut off (None).  Those vertices are found in
    the order of their old sums, below the removed edge, and re-settled by
    a Dijkstra seeded from their unchanged neighbours (Ramalingam and
    Reps 1996).  When the edge was not tight, `sums` is returned as is.
    """
    tab = ps.table(bits)
    su, sv = sums[u], sums[v]
    if su is None:
        return sums, set()
    w = (tab[u][v] or ps.dist_ints(u, v, bits))[0]
    if su + w == sv:
        top = v
    elif sv + w == su:
        top, sv = u, su
    else:
        return sums, set()
    lost, heap, queued = set(), [(sv, top)], {top}
    while heap:
        d, x = heapq.heappop(heap)
        row, below = tab[x], []
        for y in adj[x]:
            sy, length = sums[y], (row[y] or ps.dist_ints(x, y, bits))[0]
            if sy + length == d:
                # a tight edge from below d, whose start is settled
                if y not in lost:
                    break
            elif d + length == sy and y not in queued:
                below.append((sy, y))
        else:
            lost.add(x)
            for sy, y in below:
                queued.add(y)
                heapq.heappush(heap, (sy, y))
    new, heap = list(sums), []
    for x in lost:
        row, best = tab[x], None
        for y in adj[x]:
            if y not in lost:
                nd = sums[y] + (row[y] or ps.dist_ints(x, y, bits))[0]
                if best is None or nd < best:
                    best = nd
        new[x] = best
        if best is not None:
            heap.append((best, x))
    heapq.heapify(heap)
    while heap:
        d, x = heapq.heappop(heap)
        if d > new[x]:
            continue
        row = tab[x]
        for y in adj[x]:
            if y in lost:
                nd = d + (row[y] or ps.dist_ints(x, y, bits))[0]
                if new[y] is None or nd < new[y]:
                    new[y] = nd
                    heapq.heappush(heap, (nd, y))
    return new, lost


def _graph_adjacency(n, edges):
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return adj


def graph_dilation_bounds(ps: PointSet, edges, bits: int) -> Interval:
    """Enclosure of the dilation of an arbitrary connected graph.

    Integer Dijkstra runs once over lower endpoints and once over upper
    endpoints of the edge-length enclosures; the true shortest-path
    metric is sandwiched between the two runs.
    """
    n = ps.n
    adj = _graph_adjacency(n, edges)
    tab = ps.table(bits)
    ratio_lo = Fraction(0)
    ratio_hi = Fraction(0)
    for src in range(n):
        dlo = _shortest_sums(ps, adj, src, bits, 0)
        dhi = _shortest_sums(ps, adj, src, bits, 1)
        lens = tab[src]
        for dst in range(src + 1, n):
            if dlo[dst] is None:
                raise ValueError("graph is not connected")
            llo, lhi = lens[dst] or ps.dist_ints(src, dst, bits)
            # both sums share the unit of |uv|, which cancels
            ratio_lo = max(ratio_lo, Fraction(dlo[dst], lhi))
            ratio_hi = max(ratio_hi, Fraction(dhi[dst], llo))
    return Interval(ratio_lo, ratio_hi, bits)
