"""Hamiltonicity oracles and the constructive lift from dominating trails.

The oracles are exact: one depth-first search over adjacency bitmasks on an
explicit stack, with the classic backtracking prunes (Vandegriend & Culberson,
JAIR 1998): the leaf-count cut, a must-stay-connected check, exit counts for
every unvisited vertex, and most-constrained-neighbour-first ordering.  Most
yes-instances are settled on that search's first descent, so each start first
walks the descent alone on plain masks and builds the backtracking state only
at a dead end.  The search counts node expansions against the caller's budget
and reports ``Unknown`` when it runs out; a yes answer carries a vertex-order
witness.

The lifts turn a dominating (closed) trail of G into a hamiltonian path
(cycle) of the line graph: walk the trail and splice every non-trail edge in
at the first visit of one of its endpoints.  Outputs are re-verified against
an independently built line graph before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .budget import Budget, BudgetExhausted, Unknown
from .graphcore import (
    DisconnectedGraphError,
    GraphError,
    InputError,
    MultiGraph,
    Trail,
    _flood,
    is_connected,
    mask_members,
    trail_from_order,
    validate_trail,
)
from .linegraph import line_graph


@dataclass(frozen=True)
class OracleAnswer:
    """Yes/no with a vertex-order witness when the answer is yes."""

    value: bool
    order: tuple[int, ...] | None = None


def is_hamiltonian_path(g: MultiGraph, order: tuple[int, ...]) -> bool:
    """Independent verifier: does ``order`` list every vertex once along edges?"""
    if len(order) != g.vertex_count or set(order) != set(range(g.vertex_count)):
        return False
    adj = g.neighbor_masks
    return all(adj[order[i]] >> order[i + 1] & 1 for i in range(len(order) - 1))


def is_hamiltonian_cycle(g: MultiGraph, order: tuple[int, ...]) -> bool:
    """Independent verifier for a hamiltonian cycle given as a vertex order.

    For two vertices the closing step reuses the endpoint pair, so a parallel
    edge is required; a single vertex is trivially hamiltonian.
    """
    if len(order) != g.vertex_count or set(order) != set(range(g.vertex_count)):
        return False
    n = g.vertex_count
    if n == 1:
        return True
    if n == 2:
        u, v = order
        return sum(1 for e in g.edges if set(e) == {u, v}) >= 2
    adj = g.neighbor_masks
    return all(adj[order[i]] >> order[(i + 1) % n] & 1 for i in range(n))


def _starts(adj: tuple[int, ...], cycle: bool) -> list[int]:
    """The vertices a search must start from, in order; none when a cut rules it out.

    A path has a leaf as an end, so a graph with more than two leaves has
    none and a graph with a leaf is searched from its smallest leaf only; a
    cycle is anchored at a vertex of least degree.
    """
    deg = [m.bit_count() for m in adj]
    by_degree = sorted(range(len(adj)), key=deg.__getitem__)  # stable: ties by id
    leaves = [v for v in by_degree if deg[v] <= 1]
    if cycle:
        return [] if leaves else by_degree[:1]
    if len(leaves) > 2:
        return []
    return leaves[:1] or by_degree


def _search(g: MultiGraph, cycle: bool, budget: Budget) -> tuple[int, ...] | None:
    """Exact search for a hamiltonian path or cycle; raises BudgetExhausted.

    From each start, :func:`_descend` first walks the search's first descent
    and :func:`_search_from` runs only if that walk dead-ends.  This is
    exact: every prune of ``_search_from`` cuts only subtrees that hold no
    hamiltonian path or cycle, and the walk skips what the search would
    prune on its own (for a cycle, a step that leaves the start no unvisited
    neighbour).  So when the walk finishes, the search would have entered
    the same child at every depth and returned the same order first.
    """
    adj = g.neighbor_masks
    nbrs = None
    for start in _starts(adj, cycle):
        order = _descend(start, adj, cycle, budget)
        if order is not None:
            return order
        if nbrs is None:
            nbrs = [mask_members(m) for m in adj]
        order = _search_from(start, nbrs, adj, cycle, budget)
        if order is not None:
            return order
    return None


def _descend(
    start: int, adj: tuple[int, ...], cycle: bool, budget: Budget
) -> tuple[int, ...] | None:
    """The first descent of :func:`_search_from`, or None at its first dead end.

    Each step goes to the unvisited neighbour with the fewest unvisited
    neighbours, ties by vertex id, which is the search's own child order; a
    cycle skips a step that would leave the start no unvisited neighbour.
    One budget tick per step taken.
    """
    free = ((1 << len(adj)) - 1) ^ (1 << start)
    path = [start]
    v = start
    while free:
        best, fewest = -1, len(adj)
        cand = adj[v] & free
        while cand:
            bit = cand & -cand
            cand ^= bit
            rest = free ^ bit
            if cycle and rest and not adj[start] & rest:
                continue
            w = bit.bit_length() - 1
            exits = (adj[w] & rest).bit_count()
            if exits < fewest:
                best, fewest = w, exits
        if best < 0:
            return None
        budget.tick()
        free ^= 1 << best
        path.append(best)
        v = best
    if cycle and not adj[v] >> start & 1:
        return None
    return tuple(path)


def _search_from(
    start: int, nbrs: list[list[int]], adj: tuple[int, ...], cycle: bool, budget: Budget
) -> tuple[int, ...] | None:
    """Depth-first extension of a path from ``start`` on an explicit stack.

    The exits of an unvisited vertex are its neighbours that are unvisited,
    the current end, or (for a cycle) the start: in a finished cycle every
    unvisited vertex uses two of them, in a finished path all but the far
    end do.  Exit counts change only around the vertex a step leaves
    behind, so a step costs work in proportion to its degree.  The
    must-stay-connected check floods the unvisited vertices from the new
    end's unvisited neighbours; it runs only when the step had a choice,
    since leaving a vertex with one unvisited neighbour cannot disconnect
    the rest.
    Children are tried fewest unvisited neighbours first, ties by vertex id.
    """
    free = ((1 << len(adj)) - 1) ^ (1 << start)
    exits = [len(ws) for ws in nbrs]
    low_cap = 0 if cycle else 1
    low = sum(1 for v, e in enumerate(exits) if e < 2 and v != start)
    path = [start]

    def children(v: int) -> list[tuple[int, int]]:
        # (exits, child), reversed so that pop() yields the most constrained first.
        return sorted([((adj[w] & free).bit_count(), w) for w in nbrs[v] if free >> w & 1],
                      reverse=True)

    def advance(v: int, w: int) -> None:
        # The end moves from v to w, and v stops being an exit.
        nonlocal free, low
        free ^= 1 << w
        low -= exits[w] < 2
        if not (cycle and v == start):
            for u in nbrs[v]:
                exits[u] -= 1
                low += exits[u] == 1 and free >> u & 1

    def retreat(v: int, w: int) -> None:
        # Exact undo of advance(v, w).
        nonlocal free, low
        if not (cycle and v == start):
            for u in nbrs[v]:
                low -= exits[u] == 1 and free >> u & 1
                exits[u] += 1
        free |= 1 << w
        low += exits[w] < 2

    frames = [children(start)]
    while frames:
        if not frames[-1]:
            frames.pop()
            if len(path) > 1:
                w = path.pop()
                retreat(path[-1], w)
            continue
        v = path[-1]
        w = frames[-1].pop()[1]
        budget.tick()
        branching = (adj[v] & free) != 1 << w
        advance(v, w)
        path.append(w)
        if not free:
            if not cycle or adj[w] >> start & 1:
                return tuple(path)
        elif (
            low <= low_cap
            and (not cycle or adj[start] & free)
            and (not branching or _flood(adj, adj[w] & free, free) == free)
        ):
            frames.append(children(w))
            continue
        path.pop()
        retreat(v, w)
    return None


def _oracle(
    g: MultiGraph,
    cycle: bool,
    node_budget: int | None,
    time_limit: float | None,
) -> OracleAnswer | Unknown:
    operation = "has_hamiltonian_cycle" if cycle else "has_hamiltonian_path"
    if not is_connected(g):
        raise DisconnectedGraphError("hamiltonicity oracle requires a connected graph")
    n = g.vertex_count
    if n == 1:
        return OracleAnswer(True, (0,))
    if cycle and n == 2:
        ok = is_hamiltonian_cycle(g, (0, 1))
        return OracleAnswer(ok, (0, 1) if ok else None)
    budget = Budget(node_budget, time_limit)
    try:
        order = _search(g, cycle, budget)
    except BudgetExhausted as exc:
        return Unknown(operation, exc.spent, f"search on {n} vertices")
    return OracleAnswer(order is not None, order)


def has_hamiltonian_path(
    g: MultiGraph,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> OracleAnswer | Unknown:
    """Exact traceability oracle with a vertex-order witness."""
    return _oracle(g, False, node_budget, time_limit)


def has_hamiltonian_cycle(
    g: MultiGraph,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> OracleAnswer | Unknown:
    """Exact hamiltonicity oracle with a vertex-order witness."""
    return _oracle(g, True, node_budget, time_limit)


# ---------------------------------------------------------------------------
# Lifting dominating trails into the line graph


def _splice(g: MultiGraph, t: Trail) -> list[int]:
    """Line-graph vertex sequence of a dominating trail of ``g``.

    Trail edges appear in trail order; every other edge is spliced in just
    before the trail leaves the first position that meets it, ascending edge
    id within a splice block.  A nontrivial closed trail skips position 0:
    the start reappears last, so its block follows the final trail edge and
    the sequence closes up into a cycle.
    """
    first = 1 if t.closed and not t.is_trivial else 0
    first_pos: dict[int, int] = {}
    for i in range(first, len(t.vertices)):
        first_pos.setdefault(t.vertices[i], i)
    on_trail = set(t.edge_ids)
    pendant: list[list[int]] = [[] for _ in t.vertices]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in on_trail:
            pendant[min(first_pos[x] for x in (u, v) if x in first_pos)].append(eid)
    seq: list[int] = []
    for i, block in enumerate(pendant):
        seq.extend(block)
        if i < len(t.edge_ids):
            seq.append(t.edge_ids[i])
    return seq


def _lift(g: MultiGraph, t: Trail, closed: bool) -> Trail:
    """The splice of a dominating trail as a verified hamiltonian path (cycle) of L(G)."""
    validate_trail(g, t)
    on_trail = set(t.vertices)
    for eid, (u, v) in enumerate(g.edges):
        if u not in on_trail and v not in on_trail:
            raise InputError(f"trail is not dominating: edge {eid}=({u},{v}) untouched")
    seq = tuple(_splice(g, t))
    lg = line_graph(g).graph
    verify, kind = (is_hamiltonian_cycle, "cycle") if closed else (is_hamiltonian_path, "path")
    if not verify(lg, seq):
        raise GraphError(f"internal: lifted sequence is not a hamiltonian {kind}")
    return trail_from_order(lg, seq, closed=closed)


def lift_trail_to_path(g: MultiGraph, t: Trail) -> Trail:
    """Hamiltonian path of the line graph built from a dominating trail of ``g``.

    The result is verified before being returned.
    """
    return _lift(g, t, closed=False)


def lift_closed_trail_to_cycle(g: MultiGraph, t: Trail) -> Trail:
    """Hamiltonian cycle of the line graph built from a dominating closed trail."""
    if not t.closed:
        raise InputError("lift_closed_trail_to_cycle requires a closed trail")
    if g.edge_count < 3:
        raise InputError("cycle lift requires at least three edges")
    return _lift(g, t, closed=True)
