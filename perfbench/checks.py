"""Independent checks of the benchmark's outputs.

Nothing here calls itline: the corpus is compared with networkx's graph
atlas, line graphs are built with ``networkx.line_graph``, and
traceability and hamiltonicity are decided by the bitmask search below.
networkx is imported lazily, after the timed rounds, so that it adds nothing
to set-up time or to the peak memory of the timed work.
"""

from __future__ import annotations

from collections import defaultdict

#: Search-node cap for the independent hamiltonicity search; a graph whose
#: search needs more is left unchecked (the count is reported).
SEARCH_CAP = 20_000


def nx_graph(n: int, edges) -> "networkx.Graph":
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def _invariant(g) -> tuple:
    return (g.number_of_nodes(), g.number_of_edges(), tuple(sorted(d for _, d in g.degree())))


def same_up_to_isomorphism(ours: list, reference: list) -> str | None:
    """None when the two lists of pairwise non-isomorphic graphs match, else why not."""
    import networkx as nx

    if len(ours) != len(reference):
        return f"{len(ours)} graphs, expected {len(reference)}"
    buckets: dict[tuple, list] = defaultdict(list)
    for r in reference:
        buckets[_invariant(r)].append(r)
    for g in ours:
        cands = buckets[_invariant(g)]
        for i, r in enumerate(cands):
            if nx.is_isomorphic(g, r):
                del cands[i]
                break
        else:
            return f"graph with edges {sorted(g.edges())} has no unmatched reference twin"
    return None


def atlas_connected(max_vertices: int) -> list:
    """Connected graphs of networkx's atlas (up to 7 vertices), one per class."""
    import networkx as nx

    return [g for g in nx.graph_atlas_g()
            if 1 <= g.number_of_nodes() <= max_vertices and nx.is_connected(g)]


def line_graph_masks(g, times: int) -> list[int]:
    """Adjacency bitmasks of the ``times``-th line graph, built by networkx."""
    import networkx as nx

    for _ in range(times):
        g = nx.line_graph(g)
    index = {v: i for i, v in enumerate(g.nodes())}
    masks = [0] * len(index)
    for u, v in g.edges():
        masks[index[u]] |= 1 << index[v]
        masks[index[v]] |= 1 << index[u]
    return masks


def _reaches_all(adj: list[int], start: int, allowed: int) -> bool:
    """Whether every vertex of ``allowed`` is reachable from ``start`` through ``allowed``."""
    seen = 1 << start
    frontier = seen
    allowed |= seen
    while frontier:
        nxt = 0
        while frontier:
            bit = frontier & -frontier
            frontier ^= bit
            nxt |= adj[bit.bit_length() - 1]
        nxt &= allowed & ~seen
        seen |= nxt
        frontier = nxt
    return seen == allowed


def hamiltonian_search(adj: list[int], cycle: bool, cap: int = SEARCH_CAP) -> bool | None:
    """Exact depth-first search for a hamiltonian path or cycle; None past ``cap`` nodes.

    Dead (visited-set, endpoint) states are memoized, and a state is cut as
    soon as the unvisited vertices stop being reachable from the endpoint.
    """
    n = len(adj)
    if n == 1:
        return True
    full = (1 << n) - 1
    if not _reaches_all(adj, 0, full):
        return False
    if cycle:
        if n == 2 or any(bin(a).count("1") < 2 for a in adj):
            return False
        starts = [0]
    else:
        ends = [v for v in range(n) if bin(adj[v]).count("1") == 1]
        if len(ends) > 2:
            return False
        starts = ends[:1] or list(range(n))
    dead: set[tuple[int, int]] = set()
    nodes = 0

    def extend(v: int, mask: int, start: int) -> bool | None:
        nonlocal nodes
        if mask == full:
            return not cycle or bool(adj[v] >> start & 1)
        if (mask, v) in dead:
            return False
        nodes += 1
        if nodes > cap:
            return None
        rest = full & ~mask
        if not _reaches_all(adj, v, rest):
            dead.add((mask, v))
            return False
        cands = adj[v] & rest
        while cands:
            bit = cands & -cands
            cands ^= bit
            w = bit.bit_length() - 1
            found = extend(w, mask | bit, start)
            if found is None or found:
                return found
        dead.add((mask, v))
        return False

    for s in starts:
        found = extend(s, 1 << s, s)
        if found is None or found:
            return found
    return False
