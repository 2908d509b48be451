"""Loopless undirected multigraphs with stable edge ids, plus subgraph and trail views.

Vertices are the integers ``0..n-1``.  An edge is an unordered endpoint pair
identified by its position in the edge list, so parallel edges are distinct
edge ids and all other modules can refer to edges stably.  Every type here is
immutable after construction; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


class GraphError(Exception):
    """Base error for this package."""


class InputError(GraphError):
    """An argument refers outside the graph or is otherwise unusable."""


class DisconnectedGraphError(GraphError):
    """The operation is only defined for connected graphs."""


class ParseError(GraphError):
    """Malformed graph text; carries the offending line or byte offset."""

    def __init__(self, message: str, *, line: int | None = None, offset: int | None = None):
        where = ""
        if line is not None:
            where = f" (line {line})"
        elif offset is not None:
            where = f" (byte offset {offset})"
        super().__init__(message + where)
        self.line = line
        self.offset = offset


@dataclass(frozen=True)
class MultiGraph:
    """Finite, undirected, loopless multigraph.

    ``edges[eid]`` is the endpoint pair of edge ``eid``; parallel edges are
    repeated pairs with distinct ids.  Loops are rejected.
    """

    vertex_count: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", tuple((int(u), int(v)) for u, v in self.edges))
        if self.vertex_count < 0:
            raise InputError(f"vertex_count must be nonnegative, got {self.vertex_count}")
        for eid, (u, v) in enumerate(self.edges):
            if not (0 <= u < self.vertex_count and 0 <= v < self.vertex_count):
                raise InputError(f"edge {eid} endpoint out of range: ({u}, {v})")
            if u == v:
                raise InputError(f"edge {eid} is a loop at vertex {u}; loops are not allowed")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, ascending; parallel edges appear once each."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(ids) for ids in inc)

    @cached_property
    def ends(self) -> tuple[int, ...]:
        """``u ^ v`` per edge (u, v): the far end of ``eid`` from ``x`` is ``ends[eid] ^ x``."""
        return tuple(u ^ v for u, v in self.edges)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Distinct neighbours of each vertex as a bitmask (bit w set iff w is adjacent)."""
        nbr = [0] * self.vertex_count
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    @cached_property
    def connected(self) -> bool:
        """True iff the graph has a vertex and a single component."""
        everyone = (1 << self.vertex_count) - 1
        return everyone > 0 and _flood(self.neighbor_masks, 1, everyone) == everyone

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise InputError(f"vertex {v} not in graph with {self.vertex_count} vertices")

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < self.edge_count):
            raise InputError(f"edge id {eid} not in graph with {self.edge_count} edges")
        return self.edges[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self.endpoints(eid)
        if v == u:
            return w
        if v == w:
            return u
        raise InputError(f"vertex {v} is not an endpoint of edge {eid}")

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``, counting parallel edges."""
        self.check_vertex(v)
        return len(self.incidence[v])

    def distinct_neighbors(self, v: int) -> frozenset[int]:
        """Neighbor set of ``v`` without multiplicity (parallel edges collapse)."""
        self.check_vertex(v)
        return frozenset(mask_members(self.neighbor_masks[v]))


def _unchecked(cls, *values):
    """A frozen dataclass ``cls`` built from known-valid field values, skipping its checks."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__dataclass_fields__, values):
        object.__setattr__(obj, name, value)
    return obj


def mask_members(mask: int) -> list[int]:
    """The set bits of ``mask``, ascending."""
    out = []
    while mask:
        x = mask.bit_length() - 1
        out.append(x)
        mask ^= 1 << x
    out.reverse()
    return out


def _neighbor_lists(g: MultiGraph) -> list[list[int]]:
    """The far end of every incident edge of each vertex (parallel edges repeat)."""
    nbrs: list[list[int]] = [[] for _ in range(g.vertex_count)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    return nbrs


def _bfs(nbrs: list[list[int]], sources: Iterable[int]) -> list[float]:
    """Distance from the nearest source to every vertex (inf if unreachable).

    Neighbour lists, not the masks that :func:`_flood` grows: a BFS over
    masks measured 2-3.5x slower for distances.
    """
    dist: list[float] = [math.inf] * len(nbrs)
    queue = list(sources)
    for s in queue:
        dist[s] = 0
    for u in queue:
        du = dist[u] + 1
        for w in nbrs[u]:
            if dist[w] is math.inf:
                dist[w] = du
                queue.append(w)
    return dist


def bfs_distances(g: MultiGraph, source: int) -> list[float]:
    """Shortest-path distance from ``source`` to every vertex (inf if unreachable)."""
    g.check_vertex(source)
    return _bfs(_neighbor_lists(g), (source,))


def all_pairs_distances(g: MultiGraph) -> list[list[float]]:
    nbrs = _neighbor_lists(g)
    return [_bfs(nbrs, (v,)) for v in range(g.vertex_count)]


def subgraph_distance(g: MultiGraph, a: Iterable[int], b: Iterable[int]) -> float:
    """Minimum shortest-path distance between two nonempty vertex sets.

    Returns 0 when the sets overlap and ``math.inf`` when no path joins them.
    """
    aset = frozenset(a)
    bset = frozenset(b)
    if not aset or not bset:
        raise InputError("subgraph_distance requires nonempty vertex sets")
    for v in aset | bset:
        g.check_vertex(v)
    dist = _bfs(_neighbor_lists(g), aset)
    return min(dist[v] for v in bset)


def _flood(nbr: Sequence[int], seed: int, within: int = -1, radius: int | None = None) -> int:
    """The vertices reached from the vertex set ``seed``, as a bitmask.

    A step goes from a reached vertex ``x`` to the vertices of ``nbr[x]``
    that lie in ``within`` (every vertex by default), at most ``radius``
    steps from the seed when a radius is given.  The seed is always
    reached.  Rings are grown one vertex at a time, and the flood stops as
    soon as it holds all of ``within``.  This is the package's one closure
    loop over vertex masks; ``nbr`` may be any per-vertex mask lookup.
    """
    reach = ring = seed
    rings = -1 if radius is None else radius
    while ring and rings and reach != within:
        rings -= 1
        grown = 0
        while ring:
            x = ring.bit_length() - 1
            ring ^= 1 << x
            new = nbr[x] & within & ~reach
            if new:
                reach |= new
                if reach == within:
                    return reach
                grown |= new
        ring = grown
    return reach


def _split(nbr: Sequence[int], rest: int) -> list[int]:
    """The classes of the vertex set ``rest`` under ``nbr`` as masks, by smallest member."""
    comps = []
    while rest:
        comps.append(_flood(nbr, rest & -rest, rest))
        rest ^= comps[-1]
    return comps


def connected_components(g: MultiGraph) -> tuple[frozenset[int], ...]:
    """Vertex sets of the connected components, ordered by smallest member."""
    comps = _split(g.neighbor_masks, (1 << g.vertex_count) - 1)
    return tuple(frozenset(mask_members(c)) for c in comps)


def is_connected(g: MultiGraph) -> bool:
    return g.connected


def bridges(g: MultiGraph) -> frozenset[int]:
    """Edge ids whose removal splits their component.

    Iterative lowpoint DFS: the tree edge into ``w`` is a bridge iff no other
    edge leads from ``w``'s subtree to a vertex discovered before ``w``.  The
    edge the walk came in by is the only one skipped, by id, so each edge of
    a parallel pair is a back edge for the other and neither is a bridge.
    It walks edge ids, which the vertex masks of :func:`_flood` cannot tell
    apart.
    """
    n, inc, ends = g.vertex_count, g.incidence, g.ends
    disc = [-1] * n
    low = [0] * n
    found: set[int] = set()
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(inc[root]))]
        while stack:
            v, via, steps = stack[-1]
            for eid in steps:
                if eid == via:
                    continue
                w = ends[eid] ^ v
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, iter(inc[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    low[u] = min(low[u], low[v])
                    if low[v] > disc[u]:
                        found.add(via)
    return frozenset(found)


def diameter(g: MultiGraph) -> int:
    """Greatest distance between two vertices; raises on disconnected input."""
    if not is_connected(g):
        raise DisconnectedGraphError("diameter is undefined for disconnected graphs")
    nbrs = _neighbor_lists(g)
    return int(max(max(_bfs(nbrs, (v,))) for v in range(g.vertex_count)))


# ---------------------------------------------------------------------------
# Subgraph handles


@dataclass(frozen=True)
class SubgraphH:
    """A candidate subgraph: an edge-id set plus mandated isolated vertices.

    ``extra_vertices`` are vertices of the subgraph that touch none of its
    edges (degree 0 in the subgraph); they must be disjoint from the edge
    endpoints.  Pair with the host graph via the functions below.
    """

    edge_ids: frozenset[int]
    extra_vertices: frozenset[int] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "edge_ids", frozenset(int(e) for e in self.edge_ids))
        object.__setattr__(
            self, "extra_vertices", frozenset(int(v) for v in self.extra_vertices)
        )


def subgraph(g: MultiGraph, edge_ids: Iterable[int], extra_vertices: Iterable[int] = ()) -> SubgraphH:
    """Validated :class:`SubgraphH` constructor."""
    h = SubgraphH(frozenset(edge_ids), frozenset(extra_vertices))
    covered = set()
    for eid in h.edge_ids:
        covered.update(g.endpoints(eid))
    for v in h.extra_vertices:
        g.check_vertex(v)
        if v in covered:
            raise InputError(f"extra vertex {v} is an endpoint of a subgraph edge")
    return h


def subgraph_vertices(g: MultiGraph, h: SubgraphH) -> frozenset[int]:
    return frozenset(subgraph_degrees(g, h))


def subgraph_degrees(g: MultiGraph, h: SubgraphH) -> dict[int, int]:
    """Degree within the subgraph for every vertex of the subgraph."""
    degs = {v: 0 for v in h.extra_vertices}
    for eid in h.edge_ids:
        u, v = g.endpoints(eid)
        degs[u] = degs.get(u, 0) + 1
        degs[v] = degs.get(v, 0) + 1
    return degs


def odd_vertices(g: MultiGraph, h: SubgraphH) -> frozenset[int]:
    """Vertices of odd degree in the subgraph, O(H)."""
    return frozenset(v for v, d in subgraph_degrees(g, h).items() if d % 2 == 1)


def incident_edges(g: MultiGraph, h: SubgraphH) -> frozenset[int]:
    """All edges of the host graph incident with a vertex of the subgraph."""
    verts = subgraph_vertices(g, h)
    return frozenset(
        eid for eid, (u, v) in enumerate(g.edges) if u in verts or v in verts
    )


def subgraph_components(g: MultiGraph, h: SubgraphH) -> tuple[frozenset[int], ...]:
    """Connected components of the subgraph; each extra vertex is its own component."""
    return tuple(frozenset(mask_members(c)) for c in _component_masks(g, h))


def _component_masks(g: MultiGraph, h: SubgraphH) -> list[int]:
    """The components of :func:`subgraph_components` as vertex masks."""
    nbr = [0] * g.vertex_count
    verts = 0
    for v in h.extra_vertices:
        g.check_vertex(v)
        verts |= 1 << v
    for eid in h.edge_ids:
        u, v = g.endpoints(eid)
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        verts |= (1 << u) | (1 << v)
    return _split(nbr, verts)


# ---------------------------------------------------------------------------
# Trails


@dataclass(frozen=True)
class Trail:
    """Edge-distinct alternating vertex/edge walk.

    ``vertices`` has one more entry than ``edge_ids``; a trivial trail is a
    single vertex with no edges.  ``closed`` is exactly "first vertex equals
    last vertex" (trivial trails are closed by that convention).
    """

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    closed: bool

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(int(v) for v in self.vertices))
        object.__setattr__(self, "edge_ids", tuple(int(e) for e in self.edge_ids))
        if len(self.vertices) != len(self.edge_ids) + 1:
            raise InputError(
                f"trail needs len(vertices) == len(edge_ids) + 1, got "
                f"{len(self.vertices)} and {len(self.edge_ids)}"
            )
        if len(set(self.edge_ids)) != len(self.edge_ids):
            raise InputError("trail edges must be pairwise distinct")
        if self.closed != (self.vertices[0] == self.vertices[-1]):
            raise InputError("closed flag inconsistent with endpoints")

    @property
    def length(self) -> int:
        return len(self.edge_ids)

    @property
    def is_trivial(self) -> bool:
        return not self.edge_ids


def trivial_trail(v: int) -> Trail:
    return Trail((v,), (), True)


def trail_from_order(g: MultiGraph, order: Sequence[int], closed: bool = False) -> Trail:
    """The trail along a vertex order, back to its start when ``closed``.

    Consecutive vertices are joined by the smallest edge id between them
    that the trail has not used yet: on two vertices, a closed order goes
    out by one edge of a parallel pair and back by the other.
    """
    verts = tuple(map(int, [*order, *order[:1]] if closed else order))
    inc, ends = g.incidence, g.ends
    eids: dict[int, None] = {}  # insertion-ordered, with set membership
    for a, b in zip(verts, verts[1:]):
        g.check_vertex(a)
        eid = next((e for e in inc[a] if ends[e] ^ a == b and e not in eids), None)
        if eid is None:
            raise InputError(f"no unused edge joins {a} and {b}")
        eids[eid] = None
    return _unchecked(Trail, verts, tuple(eids), verts[0] == verts[-1])


def validate_trail(g: MultiGraph, t: Trail) -> None:
    """Check that the trail's edges exist in ``g`` and join its vertex sequence."""
    for v in t.vertices:
        g.check_vertex(v)
    for i, eid in enumerate(t.edge_ids):
        u, v = g.endpoints(eid)
        if {u, v} != {t.vertices[i], t.vertices[i + 1]}:
            raise InputError(
                f"edge {eid}=({u},{v}) does not join trail vertices "
                f"{t.vertices[i]} and {t.vertices[i + 1]}"
            )


def trail_vertex_set(t: Trail) -> frozenset[int]:
    return frozenset(t.vertices)


# ---------------------------------------------------------------------------
# Text formats
#
# Edge-list: first line "n m", then m lines "u v" (0-based); repeated pairs
# create parallel edges.  graph6 is the standard 6-bit encoding and covers
# simple graphs only.


def parse_edgelist(text: str) -> MultiGraph:
    lines = text.splitlines()
    tokens: list[tuple[int, str]] = []  # (line number, stripped content)
    for i, raw in enumerate(lines, start=1):
        s = raw.strip()
        if s:
            tokens.append((i, s))
    if not tokens:
        raise ParseError("empty edge-list input")
    lineno, header = tokens[0]
    parts = header.split()
    if len(parts) != 2:
        raise ParseError(f"expected header 'n m', got {header!r}", line=lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError(f"expected integers in header, got {header!r}", line=lineno)
    if n < 0 or m < 0:
        raise ParseError(f"negative counts in header {header!r}", line=lineno)
    body = tokens[1:]
    if len(body) != m:
        raise ParseError(f"expected {m} edge lines, found {len(body)}")
    edges = []
    for lineno, s in body:
        parts = s.split()
        if len(parts) != 2:
            raise ParseError(f"expected edge 'u v', got {s!r}", line=lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"expected integer endpoints, got {s!r}", line=lineno)
        if not (0 <= u < n and 0 <= v < n):
            raise ParseError(f"endpoint out of range in {s!r}", line=lineno)
        if u == v:
            raise ParseError(f"loop edge {s!r} not allowed", line=lineno)
        edges.append((u, v))
    return MultiGraph(n, tuple(edges))


def to_edgelist(g: MultiGraph) -> str:
    """Byte-deterministic edge-list text for ``g`` (round-trips via parse_edgelist)."""
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


_G6_HEADER = ">>graph6<<"


def parse_graph6(text: str) -> MultiGraph:
    """Decode one graph6 string (simple graphs only)."""
    s = text.strip()
    if s.startswith(_G6_HEADER):
        s = s[len(_G6_HEADER):]
    if not s:
        raise ParseError("empty graph6 input")
    try:
        data = s.encode("ascii")
    except UnicodeEncodeError as exc:
        raise ParseError(f"graph6 must be ASCII: {exc}")
    for i, b in enumerate(data):
        if not (63 <= b <= 126):
            raise ParseError(f"invalid graph6 byte {b}", offset=i)
    pos = 0
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            if len(data) < 8:
                raise ParseError("truncated graph6 size field", offset=len(data))
            n = 0
            for b in data[2:8]:
                n = (n << 6) | (b - 63)
            pos = 8
        else:
            if len(data) < 4:
                raise ParseError("truncated graph6 size field", offset=len(data))
            n = 0
            for b in data[1:4]:
                n = (n << 6) | (b - 63)
            pos = 4
    else:
        n = data[0] - 63
        pos = 1
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos != need:
        raise ParseError(
            f"graph6 body for n={n} needs {need} bytes, got {len(data) - pos}",
            offset=pos,
        )
    bits = []
    for b in data[pos:]:
        val = b - 63
        bits.extend((val >> shift) & 1 for shift in range(5, -1, -1))
    for k in range(nbits, len(bits)):
        if bits[k]:
            raise ParseError("nonzero padding bits in graph6 body", offset=pos + k // 6)
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return MultiGraph(n, tuple(edges))


def _graph6_header(n: int) -> list[int]:
    if n > 258047:
        raise InputError("graph too large for this graph6 encoder")
    if n <= 62:
        return [n + 63]
    return [126] + [((n >> shift) & 63) + 63 for shift in (12, 6, 0)]


def to_graph6(g: MultiGraph) -> str:
    """Encode a simple graph as graph6; parallel edges are rejected."""
    pairs = [tuple(sorted(e)) for e in g.edges]
    if len(set(pairs)) != len(pairs):
        raise InputError("graph6 encodes simple graphs only; parallel edges present")
    n = g.vertex_count
    head = _graph6_header(n)
    adj = set(pairs)
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


#: _REVERSED_6[x] is the 6-bit value x with its bits in reverse order.
_REVERSED_6 = [int(f"{x:06b}"[::-1], 2) for x in range(64)]


def graph6_from_mask(n: int, mask: int) -> str:
    """graph6 of the simple graph on ``n`` vertices whose pair (i, j), i < j,
    is an edge iff bit j(j-1)/2 + i of ``mask`` is set.

    That bit order is graph6's own, so the body is the mask cut into 6-bit
    groups from bit 0 up, each written most significant pair first.
    """
    nbits = n * (n - 1) // 2
    body = [_REVERSED_6[mask >> k & 63] + 63 for k in range(0, nbits, 6)]
    return bytes(_graph6_header(n) + body).decode("ascii")
