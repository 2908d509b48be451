"""Independent brute-force oracles and fixture graphs for the test suite.

Everything here deliberately avoids the package's own algorithms: adjacency
straight from the edge list, distances via Floyd-Warshall, proximity from an
all-pairs distance table, traceability via permutations or a Held-Karp
subset dynamic program, branches via filtered path enumeration, pendent
cycles and witness nonemptiness via raw subset enumeration.  These are the
second route for every dual-checked result.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

from itline.eup import canonical_candidate, check_conditions
from itline.graphcore import MultiGraph


def neighbor_sets(g: MultiGraph) -> list[set[int]]:
    """Distinct neighbours of each vertex, read off the edge list."""
    nbrs: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def layered_reach(g: MultiGraph, seed: set[int], within: set[int], radius: int | None) -> set[int]:
    """The seed plus every vertex of ``within`` joined to it by a path of at
    most ``radius`` steps (any length when None) whose other vertices all
    lie in ``within``, one BFS ring at a time."""
    nbrs = neighbor_sets(g)
    reached, ring, steps = set(seed), set(seed), 0
    while ring and (radius is None or steps < radius):
        ring = {w for x in ring for w in nbrs[x] if w in within} - reached
        reached |= ring
        steps += 1
    return reached


def subgraph_components_by_edges(g: MultiGraph, edge_ids, extra_vertices) -> tuple[frozenset[int], ...]:
    """Components of a subgraph by merging endpoint classes one edge at a
    time, each extra vertex on its own, ordered by smallest member."""
    classes = {v: frozenset([v]) for v in extra_vertices}
    for eid in edge_ids:
        u, v = g.edges[eid]
        merged = classes.get(u, frozenset([u])) | classes.get(v, frozenset([v]))
        for x in merged:
            classes[x] = merged
    return tuple(sorted(set(classes.values()), key=min))


def floyd_warshall(g: MultiGraph) -> list[list[float]]:
    n = g.vertex_count
    dist = [[math.inf] * n for _ in range(n)]
    for v in range(n):
        dist[v][v] = 0
    for u, v in g.edges:
        dist[u][v] = dist[v][u] = 1
    for k in range(n):
        for i in range(n):
            for j in range(n):
                via = dist[i][k] + dist[k][j]
                if via < dist[i][j]:
                    dist[i][j] = via
    return dist


def brute_subgraph_distance(g: MultiGraph, a, b) -> float:
    dist = floyd_warshall(g)
    return min(dist[u][v] for u in a for v in b)


def proximity_by_distances(
    comps: tuple[frozenset[int], ...], dist: list[list[float]], k: int
) -> tuple[bool, str]:
    """The proximity verdict and detail of ``check_conditions`` from a
    distance table: components i and j link when some cross pair is within
    k-1, and all must lie in the linked class of the first."""
    p = len(comps)
    if p <= 1:
        return True, ""
    comp_lists = [sorted(c) for c in comps]
    threshold = k - 1
    linked = [[False] * p for _ in range(p)]
    for i in range(p):
        for j in range(i + 1, p):
            ok = any(
                dist[u][v] <= threshold for u in comp_lists[i] for v in comp_lists[j]
            )
            linked[i][j] = linked[j][i] = ok
    seen = [False] * p
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        for j in range(p):
            if linked[i][j] and not seen[j]:
                seen[j] = True
                stack.append(j)
    if all(seen):
        return True, ""
    far = sorted(v for j in range(p) if not seen[j] for v in comp_lists[j])
    return False, f"components on vertices {far} are farther than {threshold} from the rest"


def brute_is_traceable(g: MultiGraph) -> bool:
    """Permutation check; only sensible for <= 8 vertices."""
    n = g.vertex_count
    if n == 1:
        return True
    nbrs = neighbor_sets(g)
    return any(
        all(order[i + 1] in nbrs[order[i]] for i in range(n - 1))
        for order in permutations(range(n))
    )


def brute_is_hamiltonian(g: MultiGraph) -> bool:
    n = g.vertex_count
    if n == 1:
        return True
    if n == 2:
        return sum(1 for e in g.edges if set(e) == {0, 1}) >= 2
    nbrs = neighbor_sets(g)
    for order in permutations(range(1, n)):
        cyc = (0,) + order
        if all(cyc[(i + 1) % n] in nbrs[cyc[i]] for i in range(n)):
            return True
    return False


def _adjacency_masks(g: MultiGraph) -> list[int]:
    return [sum(1 << w for w in ws) for ws in neighbor_sets(g)]


def held_karp_is_traceable(g: MultiGraph) -> bool:
    """Held-Karp reachability: ends[mask] is the set of vertices that can end
    a path through exactly the vertices of mask."""
    n = g.vertex_count
    adj = _adjacency_masks(g)
    ends = [0] * (1 << n)
    for mask in range(1, 1 << n):
        if mask & (mask - 1) == 0:
            ends[mask] = mask
            continue
        for v in range(n):
            if mask >> v & 1 and ends[mask ^ (1 << v)] & adj[v]:
                ends[mask] |= 1 << v
    return ends[(1 << n) - 1] != 0


def held_karp_is_hamiltonian(g: MultiGraph) -> bool:
    """Held-Karp over paths that start at vertex 0, closed by an edge back to 0."""
    n = g.vertex_count
    if n == 1:
        return True
    if n == 2:
        return sum(1 for e in g.edges if set(e) == {0, 1}) >= 2
    adj = _adjacency_masks(g)
    ends = [0] * (1 << n)
    ends[1] = 1
    for mask in range(3, 1 << n, 2):
        for v in range(1, n):
            if mask >> v & 1 and ends[mask ^ (1 << v)] & adj[v]:
                ends[mask] |= 1 << v
    return ends[(1 << n) - 1] & adj[0] != 0


def brute_branches(g: MultiGraph) -> set[frozenset[int]]:
    """Branch edge sets straight from the definition.

    Open branches: simple paths whose ends have degree != 2 and whose
    internal vertices have degree 2.  Closed branches: cycles through
    exactly one vertex of degree != 2, the rest degree 2.
    """
    deg = [g.degree(v) for v in range(g.vertex_count)]
    w = {v for v in range(g.vertex_count) if deg[v] != 2}
    found: set[frozenset[int]] = set()

    def walk(v: int, verts: list[int], eids: list[int], start: int) -> None:
        for eid in g.incidence[v]:
            if eid in eids:
                continue
            nxt = g.other_end(eid, v)
            if nxt == start and all(deg[x] == 2 for x in verts[1:]):
                found.add(frozenset(eids + [eid]))
                continue
            if nxt in verts:
                continue
            if nxt in w:
                if all(deg[x] == 2 for x in verts[1:]):
                    found.add(frozenset(eids + [eid]))
                continue
            walk(nxt, verts + [nxt], eids + [eid], start)

    for v in sorted(w):
        walk(v, [v], [], v)
    return found


def brute_pendent_cycles(g: MultiGraph) -> list[tuple[int, ...]]:
    """Edge ids of every cycle that meets the degree->=3 set in one vertex,
    ascending, from every edge subset: a cycle is a connected edge set in
    which each vertex it touches has degree 2.  Only for <= 12 edges."""
    m = g.edge_count
    assert m <= 12, "subset enumeration is for small graphs"
    v3 = {v for v in range(g.vertex_count) if g.degree(v) >= 3}
    found = []
    for mask in range(1, 1 << m):
        chosen = [eid for eid in range(m) if mask >> eid & 1]
        deg: dict[int, int] = {}
        for eid in chosen:
            for v in g.edges[eid]:
                deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()) or len(set(deg) & v3) != 1:
            continue
        reached = {g.edges[chosen[0]][0]}
        grew = True
        while grew:
            grew = False
            for eid in chosen:
                u, v = g.edges[eid]
                if (u in reached) != (v in reached):
                    reached |= {u, v}
                    grew = True
        if reached == set(deg):
            found.append(tuple(chosen))
    return sorted(found)


def brute_witness_exists(g: MultiGraph, k: int, variant: str) -> bool:
    """Raw enumeration over every edge subset; canonical completeness makes
    edge-set enumeration sufficient."""
    m = g.edge_count
    v3 = any(g.degree(v) >= 3 for v in range(g.vertex_count))
    for size in range(m + 1):
        for chosen in combinations(range(m), size):
            if not chosen and not v3:
                continue
            cand = canonical_candidate(g, chosen)
            if check_conditions(g, cand, k, variant).overall:
                return True
    return False


def brute_all_trails(g: MultiGraph):
    """Every edge-distinct trail as a visited-vertex frozenset (plus whether
    it is closed), by plain unmemoized DFS."""
    out: list[tuple[frozenset[int], bool]] = []

    def extend(start: int, v: int, used: set[int], visited: frozenset[int]) -> None:
        out.append((visited, v == start))
        for eid in g.incidence[v]:
            if eid in used:
                continue
            w = g.other_end(eid, v)
            extend(start, w, used | {eid}, visited | {w})

    for s in range(g.vertex_count):
        extend(s, s, set(), frozenset({s}))
    return out


def brute_max_trail_stats(g: MultiGraph) -> tuple[int, int]:
    """(most distinct vertices, fewest missed degree->=3 vertices among those)."""
    v3 = {v for v in range(g.vertex_count) if g.degree(v) >= 3}
    best = (0, 0)
    for visited, _ in brute_all_trails(g):
        key = (len(visited), len(visited & v3))
        if key > best:
            best = key
    return best[0], len(v3) - best[1]


def brute_has_dominating_trail(g: MultiGraph, closed: bool) -> bool:
    for visited, is_closed in brute_all_trails(g):
        if closed and not is_closed:
            continue
        if all(u in visited or v in visited for u, v in g.edges):
            return True
    return False


def trail_along_order(g: MultiGraph, order, closed: bool = False) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(vertices, edge ids) of the trail along a vertex order, back to its
    start when ``closed``: each step takes the smallest edge id joining its
    two vertices that the trail has not used, by a scan of the edge list."""
    verts = list(order) + list(order[:1]) * closed
    used: list[int] = []
    for a, b in zip(verts, verts[1:]):
        used.append(min(e for e, (u, v) in enumerate(g.edges)
                        if {u, v} == {a, b} and e not in used))
    return tuple(verts), tuple(used)


def brute_simple_paths(g: MultiGraph, min_vertices: int = 3):
    """All simple paths with at least ``min_vertices`` vertices, one orientation each."""
    n = g.vertex_count
    nbrs = neighbor_sets(g)
    out = []

    def extend(path: list[int]) -> None:
        if len(path) >= min_vertices and path[0] < path[-1]:
            out.append(tuple(path))
        for w in sorted(nbrs[path[-1]]):
            if w not in path:
                path.append(w)
                extend(path)
                path.pop()

    for s in range(n):
        extend([s])
    return out


def is_isomorphic(g1: MultiGraph, g2: MultiGraph) -> bool:
    """Brute-force isomorphism for small (multi)graphs."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    n = g1.vertex_count
    target = sorted(tuple(sorted(e)) for e in g2.edges)
    for perm in permutations(range(n)):
        mapped = sorted(tuple(sorted((perm[u], perm[v]))) for u, v in g1.edges)
        if mapped == target:
            return True
    return False


def petersen() -> MultiGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5, 7), (7, 9), (9, 6), (6, 8), (8, 5)]
    return MultiGraph(10, tuple(outer + spokes + inner))


def two_pendant_cycles_graph() -> MultiGraph:
    """Path of 7 vertices with a 4-cycle glued at vertex 4 and a pair of
    parallel edges hanging from vertex 2: exactly two cycles, both meeting
    the degree->=3 set in one vertex."""
    edges = [(i, i + 1) for i in range(6)]
    edges += [(4, 7), (7, 8), (8, 9), (9, 4)]
    edges += [(2, 10), (2, 10)]
    return MultiGraph(11, tuple(edges))
