import sys

from dilatree.dilation import _graph_adjacency, _shortest_sums


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
