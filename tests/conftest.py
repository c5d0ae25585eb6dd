import sys

from dilatree.dilation import (_graph_adjacency, _shortest_sums,
                               crossing_edge_pairs)
from dilatree.solver import Mode, _RunningScreen, _order_table


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # re-emit acceptance verdict lines; inline prints are eaten by capture
    mod = sys.modules.get("test_acceptance")
    results = getattr(mod, "RESULTS", None) if mod else None
    if not results:
        return
    terminalreporter.section("acceptance criteria")
    for num, ok, detail in sorted(results):
        terminalreporter.write_line(
            f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def graph_exceeds(ps, edges, p_num, q_den, triples):
    """Plain graph certificate: whether every spanning tree inside `edges`
    is certifiably above P/Q, from the pairs (u, v) of `triples` (s, u,
    v), where every u-v path of the graph passes through s.

    Such a tree joins u and v by a path of the graph, so its u-v length is
    at least the graph's shortest-path sum of lower endpoints, which is
    D_s(u) + D_s(v), read from one 64-bit Dijkstra per distinct s; s = u
    always qualifies, with D_u(u) = 0.  True means that sum exceeds
    (P/Q)|uv| for some pair, or that a Dijkstra left a vertex unreached: a
    disconnected graph holds no spanning tree, so every tree inside it is
    above P/Q vacuously.  False only means "not shown".  The slot search
    of `gadget.decide_partition` and the solver's `_exclude_cut` are
    checked against it.
    """
    adj = _graph_adjacency(ps.n, edges)
    sums = {}
    for s, u, v in triples:
        if s not in sums:
            sums[s] = _shortest_sums(ps, adj, s, 64, 0)
            if None in sums[s]:
                return True
        ds = sums[s]
        if q_den * (ds[u] + ds[v]) > p_num * ps.dist_ints(u, v, 64)[1]:
            return True
    return False


def pairwise_order_counts(ps, opts):
    """(examined, pruned) of a plain search over the orderings of `ps`
    for `opts`, a path or tour mode without an enumeration cap, whose
    prefix cut tests every placed vertex u pair by pair.

    It keeps `_RunningScreen` as its incumbent, seeded from the
    nearest-neighbour orderings, and cuts a child y, at lower prefix
    sum py, when for some placed u at pu the pair (u, y), or (u, w) for
    an unplaced w through y, has a lower path sum above the screen's
    `limit`; a tour pair needs its other arc, through the start, above
    it too.  A child that leaves a vertex's neighbours fixed without all
    of its required partners is cut first.  `solver._order_search` must decide every
    cut alike."""
    n, closed = ps.n, opts.mode is Mode.TOUR
    required = {tuple(sorted(e)) for e in opts.required_edges}
    partners = [{b for a, b in required if a == x} |
                {a for a, b in required if b == x} for x in range(n)]
    screen = _RunningScreen(ps)
    lo = [[e[0] for e in row] for row in screen.lens]

    def feasible(seq):
        edges = [tuple(sorted(e)) for e in
                 zip(seq, seq[1:] + seq[:1] if closed else seq[1:])]
        return required <= set(edges) and not (
            opts.crossing_free and crossing_edge_pairs(ps, edges))

    for start in range(n):
        seq = [start]
        while len(seq) < n:
            seq.append(min((w for w in range(n) if w not in seq),
                           key=lambda w: lo[seq[-1]][w]))
        if closed:
            seq = seq[seq.index(0):] + seq[:seq.index(0)]
        if feasible(seq):
            screen.tighten(_order_table(ps, seq, closed, 32))

    order, prefix, cuts = [], [], 0

    def breaks_required(seq):
        """Whether some vertex of `seq` has every neighbour fixed but not
        all of its required partners."""
        m = len(seq)
        fixed = [(seq[i], {seq[i - 1], seq[i + 1]}) for i in range(1, m - 1)]
        if not closed:
            fixed.append((seq[0], {seq[1]}))
            if m == n:
                fixed.append((seq[-1], {seq[-2]}))
        elif m == n:
            fixed += [(seq[-1], {seq[-2], seq[0]}),
                      (seq[0], {seq[1], seq[-1]})]
        return any(not partners[x] <= nbrs for x, nbrs in fixed)

    def cut(y, py):
        limit = screen.limit
        if limit is None:
            return False
        rest = [w for w in range(n) if w not in order and w != y]
        total = py + lo[y][order[0]]
        for u, pu in zip(order, prefix):
            d, lim = py - pu, limit[u]
            if closed:
                if d > lim[y] and total - d > lim[y] or any(
                        d + lo[y][w] > lim[w] and pu + lo[order[0]][w] > lim[w]
                        for w in rest):
                    return True
            elif d > lim[y] or any(d + lo[y][w] > lim[w] for w in rest):
                return True
        return False

    def extend():
        nonlocal cuts
        if len(order) == n:
            if order[1 if closed else 0] < order[-1] and feasible(order):
                screen.offer(tuple(order), _order_table(ps, order, closed, 32))
            return
        for y in range(n):
            if y in order:
                continue
            py = prefix[-1] + lo[order[-1]][y]
            if breaks_required(order + [y]) or cut(y, py):
                cuts += 1
                continue
            order.append(y)
            prefix.append(py)
            extend()
            order.pop()
            prefix.pop()

    for first in range(1 if closed else n):
        order.append(first)
        prefix.append(0)
        extend()
        order.pop()
        prefix.pop()
    return screen.count, cuts + screen.count - len(screen.survivors())
