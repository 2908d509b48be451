"""Independent brute-force oracles and fixture graphs for the test suite.

Everything here deliberately avoids the package's own algorithms: adjacency
and degrees straight from the edge list, distances via Floyd-Warshall,
proximity from an all-pairs distance table, claws from neighbour triples,
traceability via permutations or a Held-Karp subset dynamic program,
branches via filtered path enumeration, pendent cycles and witness
nonemptiness via raw subset enumeration, bridge trees by edge deletion and
pairwise tree paths, canonical codes as the least over every class-respecting
vertex ordering, graph6 by per-pair bit loops, domination by an edge scan.
These are the second route for every dual-checked result.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import chain, combinations, permutations, product

from itline.eup import canonical_candidate, check_conditions
from itline.graphcore import MultiGraph


def neighbor_sets(g: MultiGraph) -> list[set[int]]:
    """Distinct neighbours of each vertex, read off the edge list."""
    nbrs: list[set[int]] = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def degrees_by_edge_scan(g: MultiGraph) -> list[int]:
    """Each vertex's degree, parallel edges counted, read off the edge list."""
    return [sum(x in e for e in g.edges) for x in range(g.vertex_count)]


def vertices_of_degree(g: MultiGraph, keep) -> frozenset[int]:
    """The vertices whose degree, parallel edges counted, passes ``keep``."""
    return frozenset(v for v, d in enumerate(degrees_by_edge_scan(g)) if keep(d))


def has_claw(g: MultiGraph) -> bool:
    """True iff some vertex has three pairwise non-adjacent neighbours (an
    induced K_{1,3}), from every neighbour triple."""
    nbrs = neighbor_sets(g)
    return any(
        b not in nbrs[a] and c not in nbrs[a] and c not in nbrs[b]
        for v in range(g.vertex_count)
        for a, b, c in combinations(sorted(nbrs[v]), 3)
    )


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
            x, y = g.edges[eid]
            nxt = y if x == v else x
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
            x, y = g.edges[eid]
            w = y if x == v else x
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


def _components(n: int, edges) -> list[frozenset[int]]:
    """Vertex classes of ``edges`` on ``range(n)``, merged one edge at a time."""
    classes = {v: frozenset([v]) for v in range(n)}
    for u, v in edges:
        merged = classes[u] | classes[v]
        for x in merged:
            classes[x] = merged
    return sorted(set(classes.values()), key=min)


def brute_bridge_tree(g: MultiGraph):
    """(bridges, pieces, each piece's sorted exits, best tree-path value), by deletion.

    An edge is a bridge when deleting it leaves more components, and the
    pieces are the components left once every bridge is deleted.  A piece
    weighs ``count * (n + 1) + cov``, its vertices and its vertices of degree
    >= 3, and a path of the bridge tree the sum of its pieces' weights.  The
    best value is the largest over all pairs of pieces of the path between
    them.  Piece P's exits are, for each bridge at P, the best value of a
    path that starts at P's neighbour across that bridge and does not come
    back to P, paired with the bridge, all of them, in descending order.
    """
    n, edges = g.vertex_count, g.edges
    count = len(_components(n, edges))
    cut = {eid for eid in range(len(edges))
           if len(_components(n, edges[:eid] + edges[eid + 1:])) > count}
    pieces = _components(n, [e for eid, e in enumerate(edges) if eid not in cut])
    home = {x: p for p in pieces for x in p}
    degree = degrees_by_edge_scan(g)
    weight = {p: len(p) * (n + 1) + sum(degree[x] >= 3 for x in p) for p in pieces}
    links = {p: [] for p in pieces}
    for eid in cut:
        u, v = edges[eid]
        links[home[u]].append((home[v], eid))
        links[home[v]].append((home[u], eid))

    def path_to(a, b):
        """The pieces on the tree path from a to b (None if unjoined), and its first bridge."""
        stack = [(a, [a], None)]
        seen = {a}
        while stack:
            p, route, first = stack.pop()
            if p == b:
                return route, first
            for q, eid in links[p]:
                if q not in seen:
                    seen.add(q)
                    stack.append((q, route + [q], eid if first is None else first))
        return None, None

    best = 0
    exits = {p: {} for p in pieces}
    for a in pieces:
        for b in pieces:
            route, first = path_to(a, b)
            if route is None:
                continue
            value = sum(weight[p] for p in route)
            best = max(best, value)
            if first is not None:
                out = value - weight[a]
                exits[a][first] = max(exits[a].get(first, 0), out)
    sorted_exits = {p: sorted(((v, eid) for eid, v in out.items()), reverse=True)
                    for p, out in exits.items()}
    return cut, pieces, sorted_exits, best


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


def refinement_classes(g: MultiGraph) -> list[list[int]]:
    """The vertex classes of iterated neighbourhood refinement, in signature
    order.  A vertex starts at (degree,), parallel edges counted; each round
    pairs a vertex's signature with the sorted signatures of its neighbours,
    one per edge, and ranks the distinct pairs, until the class count stops
    growing."""
    n = g.vertex_count
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    sig: list = [(len(nbrs[v]),) for v in range(n)]
    while True:
        nxt = [(sig[v], tuple(sorted(sig[w] for w in nbrs[v]))) for v in range(n)]
        distinct = sorted(set(nxt))
        if len(distinct) == len(set(sig)):
            break
        sig = [distinct.index(s) for s in nxt]
    return [[v for v in range(n) if sig[v] == s] for s in sorted(set(sig))]


def least_code_by_permutations(g: MultiGraph) -> tuple[int, int]:
    """``(base, code)`` by the canonical code's definition: the least code over
    every vertex ordering that puts each refinement class, in order, on the
    next block of positions, tried as the product of the classes'
    permutations.  Pair (i, j), i < j, of multiplicity m adds
    m * base**(j(j-1)/2 + i), and base is one more than the largest
    multiplicity."""
    count = Counter(tuple(sorted(e)) for e in g.edges)
    base = 1 + max(count.values(), default=1)
    best = None
    for arrangement in product(*(permutations(c) for c in refinement_classes(g))):
        position = {v: i for i, v in enumerate(chain.from_iterable(arrangement))}
        code = 0
        for pair, m in count.items():
            i, j = sorted(position[v] for v in pair)
            code += m * base ** (j * (j - 1) // 2 + i)
        if best is None or code < best:
            best = code
    return base, best


def dominates(g: MultiGraph, vertices) -> bool:
    """True iff every edge of ``g`` has at least one endpoint in ``vertices``."""
    vs = set(vertices)
    return all(u in vs or v in vs for u, v in g.edges)


def graph6_by_bit_loops(g: MultiGraph) -> str:
    """graph6 of a simple graph, one bit per pair (i, j), column j by column
    from j = 1, packed six bits a byte, first bit most significant, with the
    one-byte size header below 63 vertices and the four-byte one above."""
    n = g.vertex_count
    head = [n + 63] if n <= 62 else [126] + [((n >> shift) & 63) + 63 for shift in (12, 6, 0)]
    adj = {tuple(sorted(e)) for e in g.edges}
    bits = []
    for j in range(1, n):
        for i in range(j):
            bits.append(1 if (i, j) in adj else 0)
    while len(bits) % 6:
        bits.append(0)
    body = []
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k:k + 6]:
            val = (val << 1) | b
        body.append(val + 63)
    return bytes(head + body).decode("ascii")


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
