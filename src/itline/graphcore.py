"""Loopless undirected multigraphs with stable edge ids, subgraph and trail views, and canonical codes.

Vertices are the integers ``0..n-1``.  An edge is an unordered endpoint pair
identified by its position in the edge list, so parallel edges are distinct
edge ids and all other modules can refer to edges stably.  Every type here is
immutable after construction; the operations are pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import starmap
from operator import xor
from typing import Iterable, NamedTuple, Sequence


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


class BridgeTree(NamedTuple):
    """G's 2-edge-connected pieces and the bridges that join them (:func:`_bridge_tree`)."""

    #: Each piece's vertex mask, children before parents.
    pieces: tuple[int, ...]
    #: The index in ``pieces`` of each vertex's piece.
    piece_of: tuple[int, ...]
    #: Each piece's bridge to its parent piece, -1 for a root's.
    up: tuple[int, ...]
    #: The bridges' edge ids as a bitmask.
    bridge_mask: int


class BridgePaths(NamedTuple):
    """The valued paths of the bridge tree (:func:`_bridge_tree_paths`)."""

    #: Each piece's two best exits, best first, as one flat tuple
    #: (value, bridge, value, bridge).
    exits: tuple[tuple[int, int, int, int], ...]
    #: The best value of any tree path.
    best: int


class _cached:
    """:func:`functools.cached_property` without the lock it takes on each first
    access before Python 3.12, about 1 µs a property of every fresh graph."""

    def __init__(self, func):
        self.func, self.__doc__ = func, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.func.__name__] = self.func(obj)
        return value


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

    @_cached
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, ascending; parallel edges appear once each."""
        inc: list[list[int]] = [[] for _ in range(self.vertex_count)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(map(tuple, inc))

    @_cached
    def ends(self) -> tuple[int, ...]:
        """``u ^ v`` per edge (u, v): the far end of ``eid`` from ``x`` is ``ends[eid] ^ x``."""
        return tuple(starmap(xor, self.edges))

    @_cached
    def neighbor_masks(self) -> tuple[int, ...]:
        """Distinct neighbours of each vertex as a bitmask (bit w set iff w is adjacent)."""
        nbr = [0] * self.vertex_count
        for u, v in self.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        return tuple(nbr)

    @_cached
    def v3_mask(self) -> int:
        """The vertices of degree >= 3, counting parallel edges, as a bitmask:
        the coverage set of EU_k/EUP_k and the set that d3* and d3** count."""
        return sum(1 << v for v, ids in enumerate(self.incidence) if len(ids) >= 3)

    @_cached
    def connected(self) -> bool:
        """True iff the graph has a vertex and a single component."""
        everyone = (1 << self.vertex_count) - 1
        return everyone > 0 and _flood(self.neighbor_masks, 1, everyone) == everyone

    @_cached
    def canonical_code(self) -> tuple[int, int]:
        """``(base, code)``, equal exactly for isomorphic graphs (:func:`_canonical_code`);
        base 2 means a simple graph, whose code is its canonical adjacency bitmask."""
        return _canonical_code(self.vertex_count, self.edges)

    @_cached
    def bridge_tree(self) -> BridgeTree:
        """The bridges and 2-edge-connected pieces, from one lowpoint DFS per
        graph object (:func:`_bridge_tree`); every reader of the tree reads it
        here."""
        return _bridge_tree(self)

    @_cached
    def bridge_tree_paths(self) -> BridgePaths:
        """Each piece's two best exits and the best path value of the bridge
        tree (:func:`_bridge_tree_paths`), valued once per graph object."""
        return _bridge_tree_paths(self)

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise InputError(f"vertex {v} not in graph with {self.vertex_count} vertices")

    def endpoints(self, eid: int) -> tuple[int, int]:
        if not (0 <= eid < self.edge_count):
            raise InputError(f"edge id {eid} not in graph with {self.edge_count} edges")
        return self.edges[eid]

    def degree(self, v: int) -> int:
        """Number of edges incident to ``v``, counting parallel edges."""
        self.check_vertex(v)
        return len(self.incidence[v])


def _unchecked(cls, *values):
    """A frozen dataclass ``cls`` built from known-valid field values, skipping its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
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


def bfs_distances(g: MultiGraph, source: int) -> list[float]:
    """Shortest-path distance from ``source`` to every vertex (inf if unreachable),
    one ring of the neighbour masks at a time."""
    g.check_vertex(source)
    nbr = g.neighbor_masks
    dist: list[float] = [math.inf] * g.vertex_count
    reach = ring = 1 << source
    d = 0
    while ring:
        grown = 0
        while ring:
            x = ring.bit_length() - 1
            ring ^= 1 << x
            dist[x] = d
            grown |= nbr[x]
        ring = grown & ~reach
        reach |= ring
        d += 1
    return dist


def _flood(nbr: Sequence[int], seed: int, within: int = -1, radius: int | None = None) -> int:
    """The vertices reached from the vertex set ``seed``, as a bitmask.

    A step goes from a reached vertex ``x`` to the vertices of ``nbr[x]``
    that lie in ``within`` (every vertex by default), at most ``radius``
    steps from the seed when a radius is given.  The seed is always
    reached.  Rings are grown one vertex at a time, and the flood stops as
    soon as it holds all of ``within``.  It is the package's closure loop
    over vertex masks; ``nbr`` may be any per-vertex mask lookup.  Two ring
    loops stay beside it, since it returns only the reached set:
    :func:`bfs_distances` numbers every ring, and :func:`diameter` counts
    rings and stops as soon as one vertex's rings reach every vertex.
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
    """The classes of the vertex set ``rest`` under ``nbr`` as masks, by smallest
    member; a vertex with no neighbour in ``rest`` is a class without a flood."""
    comps = []
    while rest:
        low = rest & -rest
        comp = _flood(nbr, low, rest) if nbr[low.bit_length() - 1] & rest else low
        comps.append(comp)
        rest ^= comp
    return comps


def is_connected(g: MultiGraph) -> bool:
    return g.connected


def _bridge_tree(g: MultiGraph) -> BridgeTree:
    """G's bridge tree, from one iterative lowpoint DFS (Tarjan, 1974).

    The tree edge into ``w`` is a bridge iff no other edge leads from
    ``w``'s subtree to a vertex discovered before ``w``.  The edge the walk
    came in by is the only one skipped, by id, so each edge of a parallel
    pair is a back edge for the other and neither is a bridge.  Discovered
    vertices wait on a stack until their piece closes: when the walk leaves
    ``w`` over a bridge, the vertices above ``w`` on the stack are ``w``'s
    2-edge-connected piece, and a root's piece closes when its walk ends.
    So the pieces close children first, in the post-order of the tree.  It
    walks edge ids, which the vertex masks of :func:`_flood` cannot tell
    apart.  :attr:`MultiGraph.bridge_tree` caches its result, whose
    ``bridge_mask`` is the one form of G's bridges that the package reads.
    """
    n, inc, ends = g.vertex_count, g.incidence, g.ends
    disc = [-1] * n
    low = [0] * n
    piece_of = [0] * n
    pieces: list[int] = []
    up: list[int] = []
    waiting: list[int] = []
    cut = 0
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, iter(inc[root]), 0)]
        waiting.append(root)
        while stack:
            v, via, steps, at = stack[-1]
            for eid in steps:
                if eid == via:
                    continue
                w = ends[eid] ^ v
                d = disc[w]
                if d < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, iter(inc[w]), len(waiting)))
                    waiting.append(w)
                    break
                if d < low[v]:
                    low[v] = d
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] <= disc[u]:
                        if low[v] < low[u]:
                            low[u] = low[v]
                        continue
                    cut |= 1 << via
                else:
                    via = -1
                # ``via`` is a bridge or v is the root: v's piece closes.
                i, mask = len(pieces), 0
                for x in waiting[at:]:
                    piece_of[x] = i
                    mask |= 1 << x
                del waiting[at:]
                pieces.append(mask)
                up.append(via)
    return BridgeTree(tuple(pieces), tuple(piece_of), tuple(up), cut)


def _bridge_tree_paths(g: MultiGraph) -> BridgePaths:
    """Values of the paths of G's bridge tree, which bound every trail of G.

    A trail crosses each bridge at most once, so the pieces it touches lie
    on one path of the tree, and it covers no more than their vertices.  A
    piece weighs ``count * (n + 1) + cov``, its vertex count and degree->=3
    count, so that sums order as (count, cov) pairs do.  An exit of a piece
    is (the best value of a tree path that leaves the piece by a bridge,
    that bridge).  :func:`_bridge_tree` closes children before parents, so
    one pass in its order hands each piece's best path down its subtree to
    its parent as an exit, and one pass in reverse gives each piece its exit
    up, from its parent's best exit by another bridge.  Each piece keeps
    only its two best exits, best first, with ``(0, m)`` for a missing one
    (no edge has id m, so no trail uses it).  Two are enough: a trail that
    ends in a piece entered it by at most one of its bridges, so its best
    unused exit is one of the two, and so is a parent's best exit by
    another bridge.  :attr:`MultiGraph.bridge_tree_paths` caches its result.
    """
    pieces, piece_of, up, _ = g.bridge_tree
    scale, k = g.vertex_count + 1, len(pieces)
    weight = [p.bit_count() * scale + (p & g.v3_mask).bit_count() for p in pieces]
    edges = g.edges
    parent = [-1] * k
    first = [(0, g.edge_count)] * k
    second = first[:]
    # Children first: a piece's exits down are all in when it comes.
    for b, eid in enumerate(up):
        if eid >= 0:
            x, y = edges[eid]
            # One end of the bridge lies in b, the other in its parent.
            a = parent[b] = piece_of[x] ^ piece_of[y] ^ b
            out = (weight[b] + first[b][0], eid)
            if out > first[a]:
                second[a] = first[a]
                first[a] = out
            elif out > second[a]:
                second[a] = out
    # Parents first: a parent has its exit up before its children read it.
    # The best tree path leaves one of its end pieces by its best exit.
    best = 0
    for b in range(k - 1, -1, -1):
        eid = up[b]
        if eid >= 0:
            a = parent[b]
            top_value, top_eid = first[a]
            out = (weight[a] + (second[a][0] if top_eid == eid else top_value), eid)
            if out > first[b]:
                second[b] = first[b]
                first[b] = out
            elif out > second[b]:
                second[b] = out
        best = max(best, weight[b] + first[b][0])
    return BridgePaths(tuple(top + runner_up for top, runner_up in zip(first, second)), best)


def diameter(g: MultiGraph) -> int:
    """Greatest distance between two vertices; raises on disconnected input.

    Each vertex's eccentricity is the number of neighbour-mask rings grown
    from it until every vertex is reached.  :func:`_flood` returns only the
    reached set, not how many rings it took, so the rings are grown here,
    and the loop stops once every vertex is reached.  Through a ring
    generator, which must compare each ring against the whole vertex set
    from outside, a pass over the <= 6-vertex corpus measured 1.3-2.3x
    slower, and every bounds record computes a diameter.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("diameter is undefined for disconnected graphs")
    nbr = g.neighbor_masks
    everyone = (1 << g.vertex_count) - 1
    diam = 0
    for v in range(g.vertex_count):
        reach = ring = 1 << v
        ecc = 0
        while reach != everyone:
            grown = reach
            while ring:
                x = ring.bit_length() - 1
                ring ^= 1 << x
                grown |= nbr[x]
            ring = grown ^ reach
            reach = grown
            ecc += 1
        diam = max(diam, ecc)
    return diam


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


def _subgraph_masks(g: MultiGraph, h: SubgraphH) -> tuple[int, int, list[int]]:
    """H's vertices, odd-degree vertices and components (by smallest member,
    each extra vertex its own) as vertex masks, from one pass over H's edges,
    whose ids must be valid in ``g``: they are read unchecked."""
    edges = g.edges
    nbr = [0] * g.vertex_count
    verts = odd = 0
    for eid in h.edge_ids:
        u, v = edges[eid]
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
        pair = (1 << u) | (1 << v)
        verts |= pair
        odd ^= pair
    for v in h.extra_vertices:
        verts |= 1 << v
    return verts, odd, _split(nbr, verts)


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
        for eid in inc[a]:
            if ends[eid] ^ a == b and eid not in eids:
                eids[eid] = None
                break
        else:
            raise InputError(f"no unused edge joins {a} and {b}")
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
    # Byte t of the body holds pairs 6t..6t+5, the first as its most
    # significant bit, so the body's bits, reversed, read as the pair mask.
    bits = "".join(f"{b - 63:06b}" for b in data[pos:])
    mask = int(bits[::-1] or "0", 2)
    if mask >> nbits:
        raise ParseError("nonzero padding bits in graph6 body", offset=len(data) - 1)
    return graph_from_mask(n, mask)


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


# ---------------------------------------------------------------------------
# Canonical forms


def _refine_colors(nbrs: list[list[int]]) -> list[int]:
    """Iterative neighborhood refinement; signatures are isomorphism-invariant.

    ``nbrs[v]`` lists a neighbor once per edge, so parallel edges count.  The
    first signature is the degree.  Each round's signatures are replaced by
    their ranks among that round's distinct signatures: ranks keep the order,
    and the next round's tuples stay flat instead of nesting every earlier
    round.
    """
    sig = [len(nb) for nb in nbrs]
    classes = len(set(sig))
    while True:
        nxt = [(s, tuple(sorted(map(sig.__getitem__, nb)))) for s, nb in zip(sig, nbrs)]
        distinct = sorted(set(nxt))
        if len(distinct) == classes:
            return sig
        classes = len(distinct)
        rank = {s: r for r, s in enumerate(distinct)}
        sig = [rank[s] for s in nxt]


def _canonical_code(n: int, edges: Iterable[tuple[int, int]]) -> tuple[int, int]:
    """``(base, code)``: the least edge code over the orderings that sort the
    refinement signatures.  Pair (i, j), i < j, of multiplicity m adds
    m * base**(j(j-1)/2 + i); base is one more than the largest multiplicity,
    so a simple graph's code is its adjacency bitmask.

    Column p, the pairs (i, p), outweighs all below it, so positions fill from
    the top, each from the top cell of an ordered partition that starts as the
    signature classes.  Column p is least when every cell puts its vertices of
    higher multiplicity to the chosen one lower, so cells split that way.  Only
    choices of least column go on, ties on a stack, and of two twins (their
    swap fixes every edge) only the first.  A discrete partition is a leaf.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    mult: list[dict[int, int]] = [{} for _ in range(n)]
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
        mult[u][v] = mult[v][u] = mult[u].get(v, 0) + 1
    base = 1 + max((m for row in mult for m in row.values()), default=1)
    sig = _refine_colors(nbrs)
    power = [base**i for i in range(n + 1)]

    def twins(u: int, w: int) -> bool:
        a, b = mult[u], mult[w]
        return len(a) == len(b) and all(x == w or b.get(x) == m for x, m in a.items())

    groups: dict[int, list[int]] = {}
    for v in range(n):
        groups.setdefault(sig[v], []).append(v)
    best = None
    stack = [([groups[s] for s in sorted(groups)], 0, n - 1)]
    while stack:
        cells, code, p = stack.pop()
        if len(cells) == p + 1:  # forced: read the leaf off the edges among 0..p
            rank = {v: i for i, (v,) in enumerate(cells)}
            code *= base ** (p * (p + 1) // 2)
            for j, (v,) in enumerate(cells):
                for x, m in mult[v].items():
                    if rank.get(x, j) < j:
                        code += m * base ** (j * (j - 1) // 2 + rank[x])
            best = code if best is None else min(best, code)
            continue
        *below, top = cells
        options = []
        for v in top:
            if options and any(twins(v, t) for t, _, _ in options):
                continue
            row = mult[v]
            split, col, pos = [], 0, 0
            for cell in below + [[x for x in top if x != v]] if len(top) > 1 else below:
                m = row.get(cell[0], 0)
                if len(cell) == 1 or not m and row.keys().isdisjoint(cell):
                    split.append(cell)
                    col += m * power[pos]
                    pos += len(cell)
                    continue
                parts: dict[int, list[int]] = {}
                for x in cell:
                    parts.setdefault(row.get(x, 0), []).append(x)
                for m in sorted(parts, reverse=True):
                    split.append(parts[m])
                    col += m * (power[pos + len(parts[m])] - power[pos]) // (base - 1)
                    pos += len(parts[m])
            options.append((v, col, split))
        if len(options) == 1:  # the loop's last split and column are that option's
            stack.append((split, code * power[p] + col, p - 1))
            continue
        least = min(col for _, col, _ in options)
        stack.extend((split, code * power[p] + col, p - 1)
                     for _, col, split in options if col == least)
    return base, best


def graph6_from_mask(n: int, mask: int) -> str:
    """graph6 of the simple graph on ``n`` vertices whose pair (i, j), i < j,
    is an edge iff bit j(j-1)/2 + i of ``mask`` is set.

    That bit order is graph6's own, so the body is the mask cut into 6-bit
    groups from bit 0 up, each written most significant pair first.
    """
    nbits = n * (n - 1) // 2
    body = [_REVERSED_6[mask >> k & 63] + 63 for k in range(0, nbits, 6)]
    return bytes(_graph6_header(n) + body).decode("ascii")


def graph_from_mask(n: int, mask: int) -> MultiGraph:
    """The simple graph whose pair (i, j), i < j, is an edge iff bit j(j-1)/2 + i
    of ``mask`` is set (the pair order of :func:`graph6_from_mask` and the canonical
    keys); the mask is read once, as a bit string, so long graphs decode in linear time."""
    bits = f"{mask:b}"[::-1]
    edges = []
    for j in range(1, n):
        row = bits[j * (j - 1) // 2:j * (j + 1) // 2]
        edges.extend((i, j) for i, c in enumerate(row) if c == "1")
    return MultiGraph(n, tuple(edges))
