"""Hardness-reduction instances from subset partitioning.

A weight sequence is encoded as a set of 8n+8 planar points whose best
spanning-tree dilation dips to 3/2 exactly when the weights split into
two equal-sum halves.  Points sit on or near a line of slope 3/4 and
its mirror image; the n choice points live on exact circle pairs and
are stored as dyadic approximations tight enough that a rational
threshold P/Q separates yes- from no-instances.

The module builds the construction exactly, audits its defining
identities and inequalities, rescales everything to integers, and
decides the partition question two ways: through a certified search of
the constrained tree family, and through a subset-sum dynamic program
used as an independent oracle.

Construction, audit and decider run on integer numerators over one
denominator: 1800 * 2^G for the gadget, with G its finest choice-point
grid, and 1 for the integer instance.  Each fact of the reduction is
stated once: `_circle_ints` gives the two circles of a choice point,
which `exactgeom.crossing_ints` crosses to place it and `_on_circle`
tests it against, and `_right_edges` lists the construction's edges,
which the ideal lengths, the critical set and the tree family read;
the lengths are integer numerators over 360 * sigma_dot.  `Fraction`s
sit only in `Gadget.rational_lengths` and the points a `PointSet` hands
out.

The search screens before it certifies.  Per attachment of the hanging
point q2 it decides the 2n choice slots one at a time, depth first.
Every family tree below a node lies in the node's graph: the decided
options plus both options of every open slot.  So when a watched pair's
shortest path there is certifiably above the threshold, the whole
subtree is cut.  One cut, `_slot_cut`, serves every node.  Every edge of
the graph stays inside one half, except the two q1-a1 edges and q2's
edge, and q2 is a leaf, so q1 separates the halves and each pair's
shortest path is read from the sums from q1 on one live graph without
q2; only q2's pair in its own half needs a Dijkstra of its own.  That
graph is the same at every root, so all roots share one Dijkstra from
q1.  A slot decision only removes an edge, so sums only grow:
`_repair_sums` re-settles only the vertices that lost every shortest
path, and the cut re-tests only the pairs they move.  Only a leaf the
cut leaves is built and certified by `compare_to_threshold`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .dilation import (PointSet, Tree, Verdict, compare_to_threshold,
                       critical_edges, _graph_adjacency, _repair_sums,
                       _scale_exp, _shortest_sums)
from .errors import NoIntersection, PrecisionInsufficient, SumTooLarge
from .exactgeom import crossing_ints, nearest
from .radical import SqrtSum


def _four(j: int) -> int:
    return 1 << (2 * j)


def partition_threshold(n: int, sigma_dot: int) -> tuple[int, int]:
    """The decision threshold (P, Q) of n weights summing to sigma_dot:
    P/Q = 3/2 + 1/Q with Q = 2 * 4^(n+4) * sigma_dot."""
    q = 2 * _four(n + 4) * sigma_dot
    return 3 * q // 2 + 1, q


# ---------------------------------------------------------------------------
# instance and solution types


@dataclass(frozen=True)
class PartitionInstance:
    """Sequence of positive integer weights to be split into equal halves."""

    alphas_dot: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "alphas_dot", tuple(self.alphas_dot))
        if not self.alphas_dot:
            raise ValueError("need at least one weight")
        for a in self.alphas_dot:
            if not isinstance(a, int) or a < 1:
                raise ValueError(f"weights must be positive integers, got {a!r}")

    @property
    def n(self) -> int:
        return len(self.alphas_dot)

    @property
    def sigma_dot(self) -> int:
        return sum(self.alphas_dot)

    @cached_property
    def alphas(self) -> tuple[Fraction, ...]:
        """The weights scaled to sum to 1/10."""
        return tuple(Fraction(ad, 10 * self.sigma_dot)
                     for ad in self.alphas_dot)


@dataclass(frozen=True)
class PartitionSolution:
    """Disjoint index sets with equal weight sums."""

    A: frozenset
    A_prime: frozenset

    def __post_init__(self):
        object.__setattr__(self, "A", frozenset(self.A))
        object.__setattr__(self, "A_prime", frozenset(self.A_prime))
        if self.A & self.A_prime:
            raise ValueError("solution halves must be disjoint")

    def consistent_with(self, alphas_dot) -> bool:
        n = len(alphas_dot)
        if self.A | self.A_prime != set(range(1, n + 1)):
            return False
        return sum(alphas_dot[i - 1] for i in self.A) \
            == sum(alphas_dot[i - 1] for i in self.A_prime)


# ---------------------------------------------------------------------------
# canonical point layout
#
# [q1, q2, a_1..a_{n+1}, b_1..b_n, c_1..c_n, d_1..d_n, p1, p2, mirrors].
# The mirror block repeats indices 2..4n+4 reflected in the y-axis, so a
# right-half index j maps to its primed twin at j + 4n + 3.

_Q1 = 0
_Q2 = 1


class _PointLayout:
    """Index arithmetic shared by the exact and the integerized instance."""

    @property
    def q1(self) -> int:
        return _Q1

    @property
    def q2(self) -> int:
        return _Q2

    def a(self, i: int) -> int:
        if not 1 <= i <= self.n + 1:
            raise IndexError(f"a_{i} out of range")
        return 1 + i

    def b(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"b_{i} out of range")
        return self.n + 2 + i

    def c(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"c_{i} out of range")
        return 2 * self.n + 2 + i

    def d(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise IndexError(f"d_{i} out of range")
        return 3 * self.n + 2 + i

    @property
    def p1(self) -> int:
        return 4 * self.n + 3

    @property
    def p2(self) -> int:
        return 4 * self.n + 4

    def mirror(self, j: int) -> int:
        """Index of the y-axis reflection of point j (q1, q2 are fixed)."""
        half = 4 * self.n + 3
        if j in (_Q1, _Q2):
            return j
        if 2 <= j <= half + 1:
            return j + half
        if half + 2 <= j <= 2 * half + 1:
            return j - half
        raise IndexError(f"point index {j} out of range")


@dataclass(frozen=True)
class Gadget(PartitionInstance, _PointLayout):
    """Exact reduction point set of the weights `alphas_dot`.

    `points` holds exact coordinates; the n choice points are dyadic
    approximations whose accuracy is recorded in `d_bits`.  The weights
    fix everything else, `rational_lengths` among it: the exact ideal
    lengths of the edges the construction defines, which make the
    threshold identity checkable as a rational equation rather than a
    numeric limit.
    """

    d_bits: int
    points: PointSet

    def __post_init__(self):
        super().__post_init__()
        if self.d_bits < 32:
            raise ValueError(f"d_bits must be at least 32, got {self.d_bits}")
        if len(self.points) != 8 * self.n + 8:
            raise ValueError("point count must be 8n+8")

    @cached_property
    def rational_lengths(self) -> dict:
        den = 360 * self.sigma_dot
        return {key: Fraction(num, den)
                for key, num in _ideal_lengths(self).items()}


@dataclass(frozen=True)
class IntegerInstance(PartitionInstance, _PointLayout):
    """Integer-coordinate instance of the weights `alphas_dot`, rounded
    to k fractional bits; its decision threshold P/Q is fixed by the
    weights."""

    k: int
    points: PointSet

    def __post_init__(self):
        super().__post_init__()
        _check_rounding_bits(self.k, self)
        if len(self.points) != 8 * self.n + 8:
            raise ValueError("point count must be 8n+8")
        if self.points.den != 1:
            raise ValueError("coordinates must be integers")
        limit = 2 * self.n + self.k + 15
        if any(abs(c).bit_length() > limit
               for p in self.points.numerators for c in p):
            raise ValueError("coordinate exceeds the bit budget")

    @property
    def P(self) -> int:
        return partition_threshold(self.n, self.sigma_dot)[0]

    @property
    def Q(self) -> int:
        return partition_threshold(self.n, self.sigma_dot)[1]


# ---------------------------------------------------------------------------
# construction


def rounding_bits(inst: PartitionInstance) -> int:
    """Smallest fractional bit count whose rounding error fits the gap.

    2^-k must stay below xi / 4^(n+7) / n, with xi = 1 / (4^(n+4) *
    sigma_dot), so that moving every choice point by up to 2^-k shifts no
    tree's dilation across the threshold.  A `Gadget` and an
    `IntegerInstance` are `PartitionInstance`s too.
    """
    m = inst.n * inst.sigma_dot
    return 4 * inst.n + 22 + m.bit_length()


def _check_rounding_bits(k: int, inst) -> None:
    """Reject a k below `rounding_bits(inst)`, before anything shifts by k."""
    if k < rounding_bits(inst):
        raise ValueError("fractional precision too small for the gap")


_SCALE_BASE = 1800  # clears every rational denominator in the construction


def _spine(length) -> tuple[int, int]:
    """Numerators over 10 of the point `length` beyond a_1 along the
    slope-3/4 line."""
    return 25 + 8 * length, 6 * length


def _circle_ints(inst: PartitionInstance, i: int) -> tuple:
    """The two circles the i-th choice point lies on, as the centers,
    squared radii and denominator `crossing_ints` takes: around c_i with
    radius 9 * 4^(i-1) + alpha_i, and around a_{i+1} with radius
    2 * 4^(i-1), over the denominator 10 * sigma_dot.  Both radii have
    whole numerators, so `isqrt` recovers them from their squares."""
    s, sd = _four(i - 1), inst.sigma_dot
    (xc, yc), (xa, ya) = _spine(9 * s - 5), _spine(20 * s - 5)
    return (xc * sd, yc * sd, (90 * s * sd + inst.alphas_dot[i - 1]) ** 2,
            xa * sd, ya * sd, (20 * s * sd) ** 2, 10 * sd)


def _on_circle(d2: int, den: int, r: int, b: int, bits: int) -> bool:
    """Whether sqrt(d2) / den, a point's distance from a centre, lies
    within 2^-bits of the radius r / b, for positive den and b and a
    radius of at least 2^-bits.

    The test runs on integers, exactly on the squares: the distance lies
    within r / b -+ 2^-bits when sqrt(d2) * b * 2^bits lies within
    den * (r * 2^bits -+ b), and both bounds are at least 0."""
    lo, hi = (den * ((r << bits) + e) for e in (-b, b))
    return lo * lo <= d2 * (b << bits) ** 2 <= hi * hi


def _right_half_points(inst: PartitionInstance, d_bits: int):
    """q1, q2, a_1..a_{n+1}, b_1..b_n, c_1..c_n, d_1..d_n, p1, p2 as
    integer pairs over one denominator, returned with it.

    The choice point d_i is its circles' upper crossing rounded to the
    grid 2^-g_i, finer for larger i; every other coordinate has a
    denominator dividing 1800, so the denominator is 1800 * 2^G for the
    finest grid G."""
    n = inst.n
    # aim the intersection precision so even the squared residuals
    # land below the 2^-d_bits budget
    grids = [d_bits + (18 * _four(i - 1) + 3).bit_length() + 2
             for i in range(1, n + 1)]
    top = max(grids)

    def spine(length):
        x, y = _spine(length)
        return (_SCALE_BASE // 10 * x) << top, (_SCALE_BASE // 10 * y) << top

    a = [spine(5 * (_four(i) - 1)) for i in range(n + 1)]
    b = [spine(6 * _four(i) - 5) for i in range(n)]
    c = [spine(9 * _four(i) - 5) for i in range(n)]
    d = []
    for i, grid in enumerate(grids, 1):
        xm, ym, hx, _, f = crossing_ints(*_circle_ints(inst, i), grid)
        if hx is None:
            raise NoIntersection("choice-point circles merely touch")
        d.append(((_SCALE_BASE * nearest(xm, f, grid)) << (top - grid),
                  (_SCALE_BASE * nearest(ym, f, grid)) << (top - grid)))
    tp = (200 * _four(n) - 179) << top     # 4^n / 9 - 179 / 1800
    ax, ay = a[n]
    p1 = (ax + 3 * tp, ay - 4 * tp)
    p2 = (ax + 12 * tp, ay - 16 * tp)
    q2 = (0, (1100 - 5000 * _four(n)) << top)  # 11 / 18 - 25 / 9 * 4^n
    return [(0, 0), q2] + a + b + c + d + [p1, p2], _SCALE_BASE << top


def _labels(n):
    right = ["q1", "q2"]
    right += [f"a{i}" for i in range(1, n + 2)]
    right += [f"b{i}" for i in range(1, n + 1)]
    right += [f"c{i}" for i in range(1, n + 1)]
    right += [f"d{i}" for i in range(1, n + 1)]
    right += ["p1", "p2"]
    return right + [lab + "'" for lab in right[2:]]


def _right_edges(lay) -> list:
    """Each edge the construction defines in the right half, once, as
    (u, v, ideal length, forced), the length an integer numerator over
    360 * sigma_dot; the forced edges lie in every tree of the family.
    The left half repeats them mirrored (`_both_halves`)."""
    last, t, sd = lay.a(lay.n + 1), _four(lay.n), lay.sigma_dot
    edges = [(lay.q1, lay.a(1), 900 * sd, True),
             (last, lay.p1, (200 * t - 179) * sd, True),
             (lay.p1, lay.p2, (600 * t - 537) * sd, True),
             (last, lay.p2, (800 * t - 716) * sd, False),
             (lay.a(1), last, 1800 * (t - 1) * sd, False)]
    for i in range(1, lay.n + 1):
        s, a, c = 360 * sd * _four(i - 1), lay.a(i), lay.c(i)
        a_next = lay.a(i + 1)
        edges += [(a, lay.b(i), s, True), (lay.b(i), c, 3 * s, True),
                  (c, lay.d(i), 9 * s + 36 * lay.alphas_dot[i - 1], False),
                  (lay.d(i), a_next, 2 * s, True), (c, a_next, 11 * s, False),
                  (a, a_next, 15 * s, False)]
    return edges


def _both_halves(lay, u, v):
    """The vertex pair (u, v) and its mirror image, each sorted."""
    mu, mv = lay.mirror(u), lay.mirror(v)
    return (min(u, v), max(u, v)), (min(mu, mv), max(mu, mv))


def _ideal_lengths(lay) -> dict:
    """The ideal length of every pair the construction defines, as an
    integer numerator over 360 * sigma_dot: the edges of `_right_edges` in
    both halves, and the axis pairs q1-q2 and q2-p2, q2-p2'."""
    t, sd = _four(lay.n), lay.sigma_dot
    L = {(lay.q1, lay.q2): (1000 * t - 220) * sd}
    q2p2 = (lay.q2, lay.p2, (2400 * t - 1212) * sd)
    for u, v, length, *_ in _right_edges(lay) + [q2p2]:
        for key in _both_halves(lay, u, v):
            L[key] = length
    return L


def build_gadget(inst: PartitionInstance, d_bits: int | None = None) -> Gadget:
    """Construct the exact 8n+8-point reduction set for a weight sequence.

    `d_bits` controls how finely the n choice points are approximated;
    the default leaves eight guard bits beyond what `integerize` will
    round to, so that rounding step is exact grid arithmetic.
    """
    if d_bits is None:
        d_bits = rounding_bits(inst) + 8
    right, den = _right_half_points(inst, d_bits)
    mirrored = [(-x, y) for x, y in right[2:]]
    return Gadget(alphas_dot=inst.alphas_dot, d_bits=d_bits,
                  points=PointSet.from_ints(right + mirrored, den,
                                            _labels(inst.n)))


# ---------------------------------------------------------------------------
# integer rescaling


def integerize(g: Gadget, k: int | None = None) -> IntegerInstance:
    """Round the choice points to k fractional bits and scale to integers.

    All other coordinates have denominators dividing 1800, so after
    multiplying by 1800 * 2^k everything is an integer; the rounding of
    an already-dyadic coordinate to the coarser grid is exact.  Both
    steps work on the gadget's integer numerators.
    """
    n = g.n
    if k is None:
        k = rounding_bits(g)
    _check_rounding_bits(k, g)
    if g.d_bits < k:
        raise PrecisionInsufficient(
            f"choice points carry {g.d_bits} fractional bits, need {k}")
    scale, den = _SCALE_BASE << k, g.points.den
    d_lo, d_hi = g.d(1), g.d(n)
    right = []
    for j, (x, y) in enumerate(g.points.numerators[:4 * n + 5]):
        if d_lo <= j <= d_hi:
            right.append((_SCALE_BASE * nearest(x, den, k),
                          _SCALE_BASE * nearest(y, den, k)))
            continue
        (x, rx), (y, ry) = divmod(x * scale, den), divmod(y * scale, den)
        if rx or ry:
            raise ValueError(f"point {j} did not scale to integers")
        right.append((x, y))
    mirrored = [(-x, y) for x, y in right[2:]]
    return IntegerInstance(alphas_dot=g.alphas_dot, k=k,
                           points=PointSet.from_ints(right + mirrored, 1,
                                                     _labels(n)))


def reduction(inst: PartitionInstance, k: int | None = None):
    """The gadget of `inst` and its integer rescale to k fractional bits,
    `rounding_bits(inst)` by default.

    The gadget is built at k + 8 bits, so rounding its choice points to
    k bits is exact grid arithmetic; k is checked against the gap first.
    """
    if k is None:
        k = rounding_bits(inst)
    _check_rounding_bits(k, inst)
    g = build_gadget(inst, d_bits=k + 8)
    return g, integerize(g, k)


# ---------------------------------------------------------------------------
# tree family


def _critical_index_edges(lay) -> list:
    """The forced edges of `_right_edges`, in both halves."""
    return [key for u, v, _, forced in _right_edges(lay) if forced
            for key in _both_halves(lay, u, v)]


def _family_skeleton(lay):
    """The fixed edges of the tree family, and per index i the
    (direct, detour) options of its right and its left choice edge: c_i to
    a_{i+1} or to d_i, and the mirror images of both."""
    m, choices = lay.mirror, []
    for i in range(1, lay.n + 1):
        c, a, d = lay.c(i), lay.a(i + 1), lay.d(i)
        choices.append((((c, a), (c, d)), ((m(c), m(a)), (m(c), m(d)))))
    return _critical_index_edges(lay), choices


def standard_tree(g, A) -> Tree:
    """Tree encoding a candidate half A: detours on the right for members
    of A, on the left for the rest, plus the forced edges."""
    A = frozenset(A)
    if not A <= set(range(1, g.n + 1)):
        raise ValueError("indices out of range")
    fixed, choices = _family_skeleton(g)
    edges = fixed + [(_Q2, g.q1)]
    for i, (right, left) in enumerate(choices, 1):
        edges += [right[i in A], left[i not in A]]
    return Tree(8 * g.n + 8, edges)


def symbolic_path_length(g: Gadget, tree: Tree, u: int, v: int) -> Fraction:
    """Exact ideal length of the tree path, from the defined edge lengths."""
    total = Fraction(0)
    for edge in tree.path_edges(u, v):
        length = g.rational_lengths.get(edge)
        if length is None:
            raise ValueError(f"edge {edge} has no defined rational length")
        total += length
    return total


def symbolic_pair_ratio(g: Gadget, tree: Tree, u: int, v: int) -> Fraction:
    key = (u, v) if u < v else (v, u)
    direct = g.rational_lengths.get(key)
    if direct is None:
        raise ValueError(f"pair {key} has no defined rational distance")
    return symbolic_path_length(g, tree, u, v) / direct


# ---------------------------------------------------------------------------
# construction audit


@dataclass(frozen=True)
class LemmaCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class LemmaReport:
    checks: tuple[LemmaCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.passed]


def _check_distance_identities(g) -> LemmaCheck:
    name = "distance identities"
    count = 0
    # choice-point edges are defined by radii, not realized distances, and
    # a pair inside the left half mirrors one already checked
    choice, left = range(g.d(1), g.d(g.n) + 1), 4 * g.n + 5
    den = 360 * g.sigma_dot
    for (u, v), num in sorted(_ideal_lengths(g).items()):
        if u in choice or v in choice or u >= left:
            continue
        # |uv|^2 = d2 / pts.den^2 against (num / den)^2, cross-multiplied
        if g.points._d2_num(u, v) * den ** 2 != (num * g.points.den) ** 2:
            return LemmaCheck(name, False,
                              f"|{u},{v}| differs from its defined value")
        count += 1
    return LemmaCheck(name, True, f"{count} squared identities hold exactly")


def _check_mirror_symmetry(g) -> LemmaCheck:
    name = "mirror symmetry"
    xy = g.points.numerators
    for j in (g.q1, g.q2):
        if xy[j][0] != 0:
            return LemmaCheck(name, False, f"axis point {j} is off the axis")
    for j in range(2, 4 * g.n + 5):
        m = g.mirror(j)
        if xy[m] != (-xy[j][0], xy[j][1]):
            return LemmaCheck(name, False, f"point {m} is not the"
                                           f" reflection of {j}")
    return LemmaCheck(name, True, "primed points reflect exactly")


def _check_d_placement(g) -> LemmaCheck:
    name = "choice-point placement"
    xy, den, bits = g.points.numerators, g.points.den, g.d_bits - 4
    (x1, y1), (xn, yn) = xy[g.a(1)], xy[g.a(g.n + 1)]
    for i in range(1, g.n + 1):
        x, y = xy[g.d(i)]
        xc, yc, r1_sq, xa, ya, r2_sq, cden = _circle_ints(g, i)
        for cx, cy, r_sq in ((xc, yc, r1_sq), (xa, ya, r2_sq)):
            # d_i and the centre over the one denominator den * cden
            d2 = (x * cden - cx * den) ** 2 + (y * cden - cy * den) ** 2
            if not _on_circle(d2, den * cden, isqrt(r_sq), cden, bits):
                return LemmaCheck(name, False,
                                  f"point d{i} sits off its defining circle")
        if (xn - x1) * (y - y1) - (yn - y1) * (x - x1) <= 0:
            return LemmaCheck(name, False, f"d{i} is not above the line")
        if not y < xy[g.a(i + 1)][1]:
            return LemmaCheck(name, False, f"d{i} is not below a{i + 1}")
    return LemmaCheck(name, True, f"residuals under 2^-{bits}, sides correct")


def _check_angle_bounds(g) -> LemmaCheck:
    name = "angle bounds"
    xy = g.points.numerators
    for i in range(1, g.n + 1):
        s, (_, _, r1_sq, _, _, _, cden) = _four(i - 1), _circle_ints(g, i)
        # cosine theorem at the right anchor: cos = (125 s^2 - r1^2) /
        # (44 s^2) with r1^2 = r1_sq / cden^2; the bounds cos > 1 - 1/(22 s)
        # and cos >= 21/22, multiplied out by 44 s^2 cden^2
        unit = s * cden * cden
        if not r1_sq < (81 * s + 2) * unit:
            return LemmaCheck(name, False, f"anchor angle at index {i} too wide")
        if not r1_sq <= 83 * s * unit:
            return LemmaCheck(name, False, f"anchor cosine at {i} below 21/22")
        dx = xy[g.d(i)][0] - xy[g.c(i)][0]
        if dx <= 0:
            return LemmaCheck(name, False, f"choice edge {i} points backwards")
        # horizontal cosine of the choice edge, squared to stay on integers
        if not (91 * dx) ** 2 > 4624 * g.points._d2_num(g.c(i), g.d(i)):
            return LemmaCheck(name, False,
                              f"choice edge {i} is steeper than 68/91 allows")
    return LemmaCheck(name, True, "anchor and slope cosines all clear")


def _check_critical_set(g) -> LemmaCheck:
    name = "critical set"
    expected = frozenset(_critical_index_edges(g))
    try:
        got = critical_edges(g.points, 8, 5)
    except Exception as exc:  # report, never throw
        return LemmaCheck(name, False, f"scan failed: {exc}")
    if got != expected:
        extra = sorted(got - expected)
        missing = sorted(expected - got)
        return LemmaCheck(name, False,
                          f"extra {extra[:4]}, missing {missing[:4]}")
    return LemmaCheck(name, True, f"exactly the {len(expected)} forced edges")


def _check_alternation(g) -> LemmaCheck:
    """Both choices of every index stay open.  Each inequality is first
    screened on the `dist_ints(..., 64)` enclosures, which hold a length
    L as L * U, U = den * 2^72; only one that screen cannot settle builds
    its exact `SqrtSum`s."""
    name = "alternation obstruction"
    pts, unit = g.points, g.points.den << _scale_exp(64)
    for i in range(1, g.n + 1):
        s, db, cd = _four(i - 1), (g.d(i), g.b(i)), (g.c(i), g.d(i))
        ad = (g.a(i + 1), g.d(i))
        (db_lo, _), (cd_lo, cd_hi), (_, ad_hi) = (pts.dist_ints(*e, 64)
                                                  for e in (db, cd, ad))
        # detour around both choice edges is too long: 5|db| + 5|bc| > 8|cd|
        if 5 * db_lo + 15 * s * unit <= 8 * cd_hi and (
                pts.exact_dist(*db).scale(5) + SqrtSum.rational(15 * s)
                - pts.exact_dist(*cd).scale(8)).sign() <= 0:
            return LemmaCheck(name, False, f"detour via b{i} is short enough")
        # while the anchor detour stays affordable, so cd is not forced
        if 8 * cd_lo <= 55 * s * unit + 5 * ad_hi and (
                pts.exact_dist(*cd).scale(8) - SqrtSum.rational(55 * s)
                - pts.exact_dist(*ad).scale(5)).sign() <= 0:
            return LemmaCheck(name, False, f"choice edge {i} became forced")
    return LemmaCheck(name, True, "every index keeps exactly two choices")


def verify_gadget(g: Gadget) -> LemmaReport:
    """Audit the construction: identities, placements, and inequalities.

    Every check is certified with exact arithmetic, on the integer
    numerators where it can; failures are collected in the report, not
    raised.
    """
    return LemmaReport(checks=(
        _check_distance_identities(g),
        _check_mirror_symmetry(g),
        _check_d_placement(g),
        _check_angle_bounds(g),
        _check_critical_set(g),
        _check_alternation(g),
    ))


# ---------------------------------------------------------------------------
# deciding the instance


def _check_encoded_weights(inst) -> None:
    """Reject a gadget or instance whose choice edges encode other weights.

    |c_i d_i| is scale * r_i, with r_i = 9 * 4^(i-1) + alpha_i the radius
    `_circle_ints` gives, up to the error in d_i.  `build_gadget` places
    d_i within 2^-(d_bits+2) of its circles' crossing.  An instance
    (scale 1800 * 2^k) rounds a gadget's d_i with d_bits >= k to k
    fractional bits, which moves it by at most 2^-k / sqrt(2), so it
    stays within 2^-k: the error `rounding_bits` fits under the gap.  So
    |c_i d_i| / scale must lie within 2^-d_bits of r_i in a gadget
    (scale 1), and within 2^-k in an instance, as `_on_circle` tests.  A
    weight one unit off moves r_i by 1 / (10 * sigma_dot), far beyond
    either error.
    """
    if isinstance(inst, IntegerInstance):
        scale, bits = _SCALE_BASE << inst.k, inst.k
    else:
        scale, bits = 1, inst.d_bits
    pts = inst.points
    for i, declared in enumerate(inst.alphas_dot, 1):
        _, _, r1_sq, _, _, _, b = _circle_ints(inst, i)
        if not _on_circle(pts._d2_num(inst.c(i), inst.d(i)),
                          scale * pts.den, isqrt(r1_sq), b, bits):
            raise ValueError(f"choice edge {i} does not encode weight"
                             f" {declared}")


def _watch_limits(lay, P) -> list:
    """The pairs `_slot_cut` watches as (u, v, P times the upper 64-bit
    length of uv): (q2, p2), (q2, p2'), then each (d_i, d_i')."""
    pts, m = lay.points, lay.mirror
    pairs = [(lay.q2, lay.p2), (lay.q2, m(lay.p2))]
    pairs += [(d, m(d)) for d in range(lay.d(1), lay.p1)]
    return [(u, v, P * pts.dist_ints(u, v, 64)[1]) for u, v in pairs]


def _slot_cut(lay, adj, attach, from_q1, changed, limits, Q) -> bool:
    """Whether every family tree inside a slot-search node's graph is
    certifiably above P/Q, or the graph holds no spanning tree.

    The node's graph is the live adjacency `adj`, which leaves q2 out,
    plus q2's edge to `attach`; `from_q1` holds the 64-bit lower sums of
    a Dijkstra from q1 on `adj`, and `limits` is `_watch_limits` at P.
    A tree inside the graph joins each watched pair by a path of it, at
    least as long as the pair's shortest-path sum, and the cut is exact
    for these pairs: q2 is a leaf, and q1 separates the halves, so
    - the far pair (q2, p2 of the half `attach` is not in) sums to
      lo(q2 attach) + D_q1(attach) + D_q1(p2);
    - each choice pair (d_i, d_i') sums to D_q1(d_i) + D_q1(d_i');
    - the near pair (q2, p2 of the half of `attach`) sums to
      lo(q2 attach) + D_attach(p2), from a second Dijkstra run only when
      the other pairs pass; when `attach` is q1, D_q1 serves it too.
    A pair cuts when Q times its sum exceeds its limit, and any vertex
    other than q2 left unreached cuts the node.  False only means "not
    shown".

    `changed` is None at a root, where every test runs.  Below a root it
    holds the vertices whose sums differ from the parent's, and the parent
    passed every test.  Sums only grow along a search path, so only a
    changed vertex can be cut off, and only a pair read through one can
    newly cut; those are all that is tested, but the near pair of an
    `attach` other than q1, read from its own Dijkstra, which always runs.
    """
    if changed is None:
        if from_q1.count(None) > 1:       # q2's entry is always None
            return True
        changed = range(len(from_q1))
    elif any(from_q1[x] is None for x in changed):
        return True
    (_, near, near_limit), (_, far, far_limit), *choice = limits
    if attach > lay.p2:
        near, near_limit, far, far_limit = far, far_limit, near, near_limit
    hang = lay.points.dist_ints(lay.q2, attach, 64)[0]
    if (attach in changed or far in changed) \
            and Q * (hang + from_q1[attach] + from_q1[far]) > far_limit:
        return True
    for d, m, limit in choice:
        if (d in changed or m in changed) \
                and Q * (from_q1[d] + from_q1[m]) > limit:
            return True
    if attach == lay.q1:
        return near in changed and Q * (hang + from_q1[near]) > near_limit
    from_attach = _shortest_sums(lay.points, adj, attach, 64, 0)
    return Q * (hang + from_attach[near]) > near_limit


def decide_partition(instance):
    """Search the constrained tree family for a certified sub-threshold tree.

    Accepts either the exact gadget or its integerized form; in both,
    the choice edges must encode the declared weights.  Tries every
    alternation pattern with every attachment of the hanging point, the
    forced attachment first; the first tree certified at most P/Q decodes
    into the partition halves.  Returns (solution, tree), or None when
    every combination is certified above the threshold.

    Per attachment, a depth-first search decides the 2n choice slots in
    turn: left n down to left 1, then right n down to right 1.  A slot
    tries direct before detour, reversed after an odd number of detours,
    so the leaves come in reflected Gray-code order; that order fixes
    which split is returned when several are valid.  Every tree below a
    node lies in the node's graph: the fixed edges, q2's edge, the decided
    options and both options of every open slot.  One live adjacency
    holds that graph without q2: deciding a slot removes the option not
    taken, and backtracking puts it back.  At each node `_slot_cut` reads
    the watched pairs from the lower sums from q1 on it, so a certified
    pair cuts every tree below; at a leaf the graph is the tree itself.
    Only a leaf it does not cut is built as a `Tree` and certified by
    `compare_to_threshold`.

    q2 is a leaf and q1 separates the halves, so q2's pairs need no graph
    of their own, and the root graph, the same for every attachment,
    gives all roots one Dijkstra from q1.  Below a root, `_repair_sums`
    turns the parent's sums into the child's after the removal, and the
    cut re-tests only the vertices and pairs whose sums it changed; the
    parent passed every test, so the verdict is the full cut's.  The
    limits P * hi of the watched pairs are computed once per call.
    """
    lay = instance
    n = lay.n
    pts = lay.points
    P, Q = partition_threshold(n, instance.sigma_dot)
    _check_encoded_weights(instance)

    total = 8 * n + 8
    fixed, choices = _family_skeleton(lay)
    slots = [left for _, left in reversed(choices)]
    slots += [right for right, _ in reversed(choices)]
    adj = _graph_adjacency(total, fixed + [e for slot in slots for e in slot])
    taken = []

    def search(attach, from_q1, changed, depth, reflected):
        if _slot_cut(lay, adj, attach, from_q1, changed, limits, Q):
            return None
        if depth == len(slots):
            tree = Tree(total, fixed + [(lay.q2, attach)] + taken)
            at_most = compare_to_threshold(pts, tree, P, Q) is Verdict.AT_MOST
            return tree if at_most else None
        for detour in ((1, 0) if reflected else (0, 1)):
            u, v = slots[depth][1 - detour]
            adj[u].remove(v)
            adj[v].remove(u)
            taken.append(slots[depth][detour])
            tree = search(attach, *_repair_sums(pts, adj, from_q1, u, v, 64),
                          depth + 1, reflected ^ detour)
            taken.pop()
            adj[u].append(v)
            adj[v].append(u)
            if tree is not None:
                return tree
        return None

    root = _shortest_sums(pts, adj, lay.q1, 64, 0)
    limits = _watch_limits(lay, P)
    for attach in [lay.q1] + list(range(lay.q2 + 1, total)):
        tree = search(attach, root, None, 0, 0)
        if tree is not None:
            break
    # `search` calls itself through its closure, a reference cycle that
    # would keep the points and their tables until the next collection
    del search
    if tree is None:
        return None
    # the halves are the detours the tree takes, right then left
    sol = PartitionSolution(*(
        frozenset(i for i, slot in enumerate(choices, 1)
                  if tree.has_edge(*slot[side][1]))
        for side in (0, 1)))
    if not sol.consistent_with(instance.alphas_dot):
        raise ValueError("sub-threshold tree decodes to an invalid partition")
    return sol, tree


_ORACLE_SUM_CAP = 10 ** 6


def partition_oracle(inst: PartitionInstance):
    """Subset-sum dynamic program deciding the partition question directly."""
    sd = inst.sigma_dot
    if sd > _ORACLE_SUM_CAP:
        raise SumTooLarge(f"total weight {sd} exceeds {_ORACLE_SUM_CAP}")
    if sd % 2:
        return None
    target = sd // 2
    reachable = 1
    before = []
    for a in inst.alphas_dot:
        before.append(reachable)
        reachable |= reachable << a
    if not (reachable >> target) & 1:
        return None
    chosen = set()
    t = target
    for j in range(inst.n - 1, -1, -1):
        if not (before[j] >> t) & 1:
            chosen.add(j + 1)
            t -= inst.alphas_dot[j]
    sol = PartitionSolution(frozenset(chosen),
                            frozenset(range(1, inst.n + 1)) - frozenset(chosen))
    if not sol.consistent_with(inst.alphas_dot):
        raise ValueError("reconstruction produced an invalid split")
    return sol
