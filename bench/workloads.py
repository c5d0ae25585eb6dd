"""Seeded inputs, timed operations and answer checks for each workload.

A workload builds its instance set from the seed alone, with no call
into dilatree, so set-up time measures the import and the generation and
nothing else.  `ops` then yields one pass over that set as `Op` objects.
Every pass builds fresh `PointSet`s, so caches start cold in each pass
and the work done per pass is identical from pass to pass.  The runner
times `Op.call` and then calls `Op.check` outside the timed region.  An
op that needs an earlier op's answer (a threshold taken from a dilation
enclosure) reads it after the runner resumes the generator.

Checks rely on independent oracles where one exists: the benchmark's own
96-bit integer evaluation of a structure's dilation, a subset-sum
program for partition questions, and invariance under translation.

No timed operation fails today.  Two known defects make other
operations on the same inputs fail, so those run apart from the timed
passes: `known_defects` yields them, once per run, and the runner
reports how many failed.  `KNOWN_DEFECTS` names the defects; a failure
of another kind marks the whole run incorrect.
"""

import heapq
import io
import os
import random
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from math import ceil, floor, isqrt

OFFSETS = (1 << 54, 1 << 60)
CHECK_BITS = 96

# failures expected of the `known_defects` operations at the commit that
# defines the benchmark: name -> (exception that counts, or None for any)
KNOWN_DEFECTS = {
    # the float prefilter of path/tour search loses translated inputs
    "path/tour search on translated points (ROADMAP open item 1)": None,
    # radicands with a prime-square factor above 4096 hide exact zeros
    "exact ties on collinear chains (ROADMAP open item 2)":
        "PrecisionExhausted",
}
_ITEM1, _ITEM2 = KNOWN_DEFECTS


class Op:
    """One timed call into dilatree and the check of its answer."""

    __slots__ = ("label", "call", "check", "defect", "result", "error")

    def __init__(self, label, call, check=None, defect=None):
        self.label = label
        self.call = call
        self.check = check
        self.defect = defect
        self.result = None
        self.error = None

    @classmethod
    def skipped(cls, label, prerequisite):
        """An op whose input was the answer of a failed prerequisite."""
        op = cls(label, None, defect=prerequisite.defect)
        op.error = prerequisite.error
        return op

    @property
    def ok(self):
        return self.error is None

    def expected_failure(self):
        if self.defect is None:
            return False
        exc = KNOWN_DEFECTS[self.defect]
        return exc is None or self.error.startswith(exc + ":")


# ---------------------------------------------------------------------------
# independent oracles


def _dist_sq(a, b):
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    return dx * dx + dy * dy


def _root(v, bits):
    """Integer enclosure of sqrt(v) * 2^bits."""
    scaled = v << (2 * bits)
    r = isqrt(scaled)
    return r, r if r * r == scaled else r + 1


def dilation_enclosure(coords, edges, bits=CHECK_BITS):
    """(lo, hi) bracketing the dilation of the graph `edges` on `coords`.

    Shortest paths run once over lower and once over upper edge-length
    bounds, so the true graph metric lies between the two runs.
    """
    n = len(coords)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        lo, hi = _root(_dist_sq(coords[u], coords[v]), bits)
        adj[u].append((v, lo, hi))
        adj[v].append((u, lo, hi))
    best_lo = best_hi = Fraction(0)
    for side in (1, 2):
        for s in range(n):
            dist = [None] * n
            dist[s] = 0
            heap = [(0, s)]
            while heap:
                d, x = heapq.heappop(heap)
                if d > dist[x]:
                    continue
                for edge in adj[x]:
                    nd = d + edge[side]
                    if dist[edge[0]] is None or nd < dist[edge[0]]:
                        dist[edge[0]] = nd
                        heapq.heappush(heap, (nd, edge[0]))
            for t in range(s + 1, n):
                if dist[t] is None:
                    raise ValueError("structure does not connect all points")
                lo, hi = _root(_dist_sq(coords[s], coords[t]), bits)
                if side == 1:
                    best_lo = max(best_lo, Fraction(dist[t], hi))
                else:
                    best_hi = max(best_hi, Fraction(dist[t], lo))
    return best_lo, best_hi


def _overlap(interval, lo, hi):
    return interval.lo <= hi and lo <= interval.hi


def _shape_error(n, edges, mode):
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    want = n if mode == "tour" else n - 1
    if len(set(edges)) != len(edges) or len(edges) != want:
        return f"{mode} has {len(edges)} distinct edges, expected {want}"
    if mode != "tree" and max(degree) > 2:
        return f"{mode} has a vertex of degree {max(degree)}"
    return None


def has_equal_split(alphas):
    """Subset-sum check: can the weights split into two equal halves?"""
    total = sum(alphas)
    if total % 2:
        return False
    reach = 1
    for a in alphas:
        reach |= reach << a
    return bool((reach >> (total // 2)) & 1)


# ---------------------------------------------------------------------------
# point generators


def general_position(rng, n, span):
    """n distinct integer points, no three collinear, in sorted order."""
    while True:
        pts = set()
        while len(pts) < n:
            pts.add((rng.randrange(span), rng.randrange(span)))
        pts = sorted(pts)
        if all((b[0] - a[0]) * (c[1] - a[1]) != (b[1] - a[1]) * (c[0] - a[0])
               for i, a in enumerate(pts)
               for j, b in enumerate(pts[i + 1:], i + 1)
               for c in pts[j + 1:]):
            return pts


def euclidean_mst(coords):
    """Prim's tree over exact squared distances, ties to the lower index."""
    n = len(coords)
    best = [(_dist_sq(coords[0], p), 0) for p in coords]
    in_tree = [False] * n
    in_tree[0] = True
    edges = []
    for _ in range(n - 1):
        v = min((i for i in range(n) if not in_tree[i]),
                key=lambda i: (best[i][0], i))
        in_tree[v] = True
        u = best[v][1]
        edges.append((min(u, v), max(u, v)))
        for i in range(n):
            if not in_tree[i]:
                d = _dist_sq(coords[v], coords[i])
                if d < best[i][0]:
                    best[i] = (d, v)
    return sorted(edges)


def translated(coords, offset):
    return [(x + offset, y + offset) for x, y in coords]


# the eight symmetries of the square lattice, as (a, b, c, d) in
# (x, y) -> (a x + b y, c x + d y)
_SYMMETRIES = ((1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
               (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0))


def present(rng, coords, shift=1 << 10):
    """The same points as the seed presents them: moved by a symmetry of
    the integer lattice and a translation by up to `shift` per axis.

    Distances, and with them every answer and the work spent finding it,
    are unchanged; coordinates are not, and neither is how they round to
    doubles.
    """
    a, b, c, d = rng.choice(_SYMMETRIES)
    moved = [(a * x + b * y, c * x + d * y) for x, y in coords]
    tx = rng.randrange(shift) - min(x for x, _ in moved)
    ty = rng.randrange(shift) - min(y for _, y in moved)
    return [(x + tx, y + ty) for x, y in moved]


# ---------------------------------------------------------------------------
# search: mdst_exact in every mode plus the exhaustive oracle


class Search:
    """Minimum-dilation search on 6-8 points, each also shifted by 2^54.

    Tree and tour mode run on every size, path mode on 6 and 7 points and
    exhaustive_mdst on 6 points, where it enumerates 1296 trees.  An
    8-point path search (20160 orderings, about 0.3 s) would cost as much
    as the rest of a pass, and two of them would sit right at p90.  At
    the 2^54 offset only tree mode and exhaustive_mdst are timed; path and
    tour mode there are the known defect of ROADMAP open item 1.
    """

    name = "search"
    # on a 32 x 32 grid about half of the path and tour searches at the
    # 2^54 offset fail today, close to the share found when the defect
    # was first probed
    SPAN = 32
    # exhaustive_mdst (about 0.15 s) is 16 of the 55 operations, so p90
    # falls among those; p50 falls in the middle of the 12 operations of
    # 8.1-8.7 ms (the 6-point path searches and the slowest 6-point tree
    # searches): 20 operations are faster and 23 slower, so p50 is not on
    # a step between sizes
    COUNTS = {6: 8, 7: 1, 8: 1}
    PATH_MAX = 7
    EXHAUSTIVE_MAX = 6

    def __init__(self, seed, short=False):
        rng = random.Random(f"search/{seed}")
        counts = {5: 1, 6: 1} if short else self.COUNTS
        self.instances = []
        for n, count in counts.items():
            family = random.Random(f"search/family/{n}")
            self.instances += [
                present(rng, general_position(family, n, self.SPAN))
                for _ in range(count)]

    def sizes(self):
        return {"points": sorted({len(c) for c in self.instances}),
                "instances": len(self.instances)}

    def _modes(self, n):
        return ("tree", "path", "tour") if n <= self.PATH_MAX \
            else ("tree", "tour")

    @staticmethod
    def _search(dl, ps, mode):
        opts = dl.SolverOptions(mode=dl.Mode[mode.upper()])
        return lambda: dl.mdst_exact(ps, opts)

    def ops(self, dl, workdir):
        for coords in self.instances:
            n = len(coords)
            base = {}
            for offset in (0, OFFSETS[0]):
                ps = dl.PointSet.from_coords(translated(coords, offset))
                for mode in self._modes(n) if not offset else ("tree",):
                    op = Op(f"mdst_{mode}" + ("@2^54" if offset else ""),
                            self._search(dl, ps, mode),
                            self._checker(coords, mode, base.get(mode)))
                    yield op
                    value = op.result.report.value if op.ok else None
                    if not offset:
                        base[mode] = value
                    if mode == "tree":
                        tree_value = value
                if n <= self.EXHAUSTIVE_MAX:
                    yield Op("exhaustive_mdst",
                             lambda ps=ps: dl.exhaustive_mdst(ps),
                             self._checker(coords, "tree", tree_value))

    def known_defects(self, dl):
        """Path and tour search at the 2^54 offset, each checked against
        the same search on the untranslated points."""
        for coords in self.instances:
            for mode in self._modes(len(coords))[1:]:
                try:
                    reference = self._search(
                        dl, dl.PointSet.from_coords(coords), mode)()
                    reference = reference.report.value
                except Exception:  # the timed passes report this failure
                    reference = None
                ps = dl.PointSet.from_coords(translated(coords, OFFSETS[0]))
                yield Op(f"mdst_{mode}@2^54", self._search(dl, ps, mode),
                         self._checker(coords, mode, reference), _ITEM1)

    @staticmethod
    def _checker(coords, mode, reference):
        """Check a search result against its own structure and against
        the reference value (the untranslated optimum, or tree mode's
        optimum for the exhaustive oracle), when there is one."""

        def check(result):
            best = result.best
            edges = sorted(best.edges if hasattr(best, "edges") else best)
            shape = _shape_error(len(coords), edges, mode)
            if shape:
                return shape
            lo, hi = dilation_enclosure(coords, edges)
            if not _overlap(result.report.value, lo, hi):
                return "reported dilation disagrees with a 96-bit evaluation"
            if reference is not None and not _overlap(reference, lo, hi):
                return "optimum differs from the reference search"
            return None

        return check


# ---------------------------------------------------------------------------
# partition: gen -> verify -> decide through the command line


class Partition:
    """CLI round trips on yes-instances with n = 2-5 and no-instances
    with n = 2-3.  A no-instance with n = 4 spends about 3 s in `decide`,
    which would leave too few round trips in one run.

    Round-trip times form plateaus: yes-instances with n = 2-3 take
    40-80 ms, no-instances with n = 2 about 90 ms, yes-instances with
    n = 4-5 100-300 ms, and no-instances with n = 3 about 0.5 s.  The
    counts put p50 in the middle of the 90 ms plateau and p90 inside the
    0.5 s one, so neither percentile sits on a step between plateaus.

    The order of the weights moves `decide` by up to 1.4x, so the weights
    and their order are fixed and the seed orders the round trips of a
    pass instead: every seed does the same work."""

    name = "partition"
    MAX_WEIGHT = 9
    # (number of weights, has an equal split) -> instances per pass
    COUNTS = {(2, True): 4, (3, True): 5, (4, True): 2, (5, True): 2,
              (2, False): 10, (3, False): 5}

    def __init__(self, seed, short=False):
        rng = random.Random(f"partition/{seed}")
        counts = {(2, True): 1, (3, True): 1, (2, False): 1} if short \
            else self.COUNTS
        self.instances = []
        for (n, want), count in counts.items():
            family = random.Random(f"partition/family/{n}/{want}")
            for _ in range(count):
                while True:
                    alphas = [family.randint(1, self.MAX_WEIGHT)
                              for _ in range(n)]
                    if has_equal_split(alphas) == want:
                        break
                self.instances.append((tuple(alphas), want))
        rng.shuffle(self.instances)

    def sizes(self):
        return {"weights": sorted({len(a) for a, _ in self.instances}),
                "yes": sum(w for _, w in self.instances),
                "no": sum(not w for _, w in self.instances)}

    def ops(self, dl, workdir):
        inst_path = os.path.join(workdir, "instance.json")
        split_path = os.path.join(workdir, "split.json")
        for alphas, want in self.instances:
            if os.path.exists(split_path):
                os.remove(split_path)
            argv = (["gen", "--alphas", ",".join(map(str, alphas)),
                     "-o", inst_path],
                    ["verify", inst_path],
                    ["decide", inst_path, "-o", split_path])

            def round_trip(argv=argv):
                sink = io.StringIO()
                with redirect_stdout(sink), redirect_stderr(sink):
                    return [dl.cli.run(list(a)) for a in argv]

            yield Op("round_trip", round_trip,
                     self._checker(dl, alphas, want, split_path))

    def known_defects(self, dl):
        return iter(())

    @staticmethod
    def _checker(dl, alphas, want, split_path):
        def check(codes):
            oracle = dl.partition_oracle(dl.PartitionInstance(alphas))
            if (oracle is not None) != want:
                return "partition_oracle disagrees with the subset-sum check"
            expected = [0, 0, 0 if want else 1]
            if codes != expected:
                return f"exit codes {codes}, expected {expected}"
            if want:
                split = dl.fileio.load_json(split_path)
                a, b = set(split["A"]), set(split["A_prime"])
                if a & b or a | b != set(range(1, len(alphas) + 1)):
                    return "decoded split is not a partition of the indices"
                if sum(alphas[i - 1] for i in a) != \
                        sum(alphas[i - 1] for i in b):
                    return "decoded split has unequal sums"
            return None

        return check


# ---------------------------------------------------------------------------
# certify: tree_dilation, compare_to_threshold and critical_edges


class Certify:
    """Verdicts on minimum spanning trees of 20-60 points and on
    collinear chains.

    Three families: general-position points, each also shifted by 2^54
    or 2^60, against coarse thresholds on either side of the dilation;
    general-position points against the two endpoints of their own 64-bit
    enclosure; and the dilation of chains along a non-axis lattice
    direction, which is exactly 1.  The chains' verdicts against the
    exact threshold 1 are the known defect of ROADMAP open item 2.
    """

    name = "certify"
    SPAN = 1 << 20
    GAP = 1 << 14
    DIRECTIONS = ((1, 2), (2, 3), (1, 3), (2, 5))

    def __init__(self, seed, short=False):
        family = random.Random("certify/family")
        rng = random.Random(f"certify/{seed}")
        general = (12,) if short else (20, 30, 40, 50, 60)
        chains = (8,) if short else (20, 25, 30)

        def tree_on(coords):
            return present(rng, coords, self.SPAN), euclidean_mst(coords)

        self.general = [
            tree_on(general_position(family, n, self.SPAN))
            + (OFFSETS[i % 2],) for i, n in enumerate(general)]
        self.endpoint = [tree_on(general_position(family, n, self.SPAN))
                         for n in general]
        self.chains = []
        for n in chains:
            a, b = family.choice(self.DIRECTIONS)
            k = 0
            coords = []
            for _ in range(n):
                coords.append((a * k, b * k))
                k += family.randrange(1, self.GAP)
            self.chains.append((present(rng, coords, self.SPAN),
                                [(i, i + 1) for i in range(n - 1)]))
        self._enclosures = {}

    def _enclosure(self, coords, edges):
        """The independent enclosure, computed once per instance."""
        key = id(coords)
        if key not in self._enclosures:
            self._enclosures[key] = dilation_enclosure(coords, edges)
        return self._enclosures[key]

    def sizes(self):
        return {"general": [len(c) for c, _, _ in self.general],
                "endpoint": [len(c) for c, _ in self.endpoint],
                "collinear": [len(c) for c, _ in self.chains]}

    def ops(self, dl, workdir):
        for coords, edges, offset in self.general:
            base = {}
            for shift in (0, offset):
                yield from self._general_ops(dl, coords, edges, shift, base)
        for coords, edges in self.endpoint:
            yield from self._endpoint_ops(dl, coords, edges)
        for coords, edges in self.chains:
            yield from self._chain_ops(dl, coords, edges)

    @staticmethod
    def _structure(dl, coords, edges, shift=0):
        ps = dl.PointSet.from_coords(translated(coords, shift))
        return ps, dl.Tree(len(coords), edges)

    def _dilation_op(self, dl, ps, tree, coords, edges, same_as=None):
        def check(report):
            lo, hi = self._enclosure(coords, edges)
            if not _overlap(report.value, lo, hi):
                return "enclosure disagrees with a 96-bit evaluation"
            if same_as is not None and report.value != same_as:
                return "translated copy gives another enclosure"
            return None

        return Op("tree_dilation", lambda: dl.tree_dilation(ps, tree, 64),
                  check)

    @staticmethod
    def _verdict_op(dl, ps, tree, threshold, expect, defect=None):
        """compare_to_threshold at `threshold`; `expect` is the verdict
        name the answer must have, or None when either is possible."""

        def check(verdict):
            if expect is not None and verdict.value != expect:
                return f"verdict {verdict.value} at {threshold}, " \
                       f"expected {expect}"
            return None

        return Op("compare_to_threshold",
                  lambda: dl.compare_to_threshold(
                      ps, tree, threshold.numerator, threshold.denominator),
                  check, defect)

    def _general_ops(self, dl, coords, edges, shift, base):
        ps, tree = self._structure(dl, coords, edges, shift)
        op = self._dilation_op(dl, ps, tree, coords, edges,
                               base.get("value"))
        yield op
        labels = ("compare_to_threshold", "compare_to_threshold",
                  "critical_edges")
        if not op.ok:
            for label in labels:
                yield Op.skipped(label, op)
            return
        value = op.result.value
        base.setdefault("value", value)
        # coarse thresholds strictly outside the enclosure
        above = Fraction(floor(value.hi * 8) + 1, 8)
        below = max(Fraction(ceil(value.lo * 8) - 1, 8), Fraction(1))
        yield self._verdict_op(dl, ps, tree, above, "at_most")
        yield self._verdict_op(dl, ps, tree, below,
                               "greater" if below < value.lo else None)
        tree_edges = set(tree.edges)

        def check(found):
            if not found <= tree_edges:
                return "a critical edge is missing from a tree within " \
                       "the threshold"
            if base.setdefault("critical", found) != found:
                return "translated copy gives other critical edges"
            return None

        yield Op("critical_edges",
                 lambda: dl.critical_edges(ps, above.numerator,
                                           above.denominator), check)

    def _endpoint_ops(self, dl, coords, edges):
        ps, tree = self._structure(dl, coords, edges)
        op = self._dilation_op(dl, ps, tree, coords, edges)
        yield op
        if not op.ok:
            yield Op.skipped("compare_to_threshold", op)
            yield Op.skipped("compare_to_threshold", op)
            return
        value = op.result.value
        yield self._verdict_op(dl, ps, tree, value.hi, "at_most")
        # greater unless the dilation sits exactly on the lower endpoint,
        # which only the finer independent evaluation can rule out
        lo, _ = self._enclosure(coords, edges)
        yield self._verdict_op(dl, ps, tree, max(value.lo, Fraction(1)),
                               "greater" if lo > value.lo else None)

    def _chain_ops(self, dl, coords, edges):
        ps, tree = self._structure(dl, coords, edges)

        def dilation_one(report):
            if not report.value.contains(1):
                return "collinear chain enclosure excludes 1"
            return None

        yield Op("tree_dilation", lambda: dl.tree_dilation(ps, tree, 64),
                 dilation_one)

    def known_defects(self, dl):
        """Each chain against the exact threshold 1, which it meets."""
        for coords, edges in self.chains:
            ps, tree = self._structure(dl, coords, edges)

            def chain_edges(found, edges=edges):
                if found != set(edges):
                    return "critical edges at 1 are not the chain edges"
                return None

            yield self._verdict_op(dl, ps, tree, Fraction(1), "at_most",
                                   _ITEM2)
            yield Op("critical_edges",
                     lambda ps=ps: dl.critical_edges(ps, 1, 1),
                     chain_edges, _ITEM2)


WORKLOADS = {cls.name: cls for cls in (Search, Partition, Certify)}
