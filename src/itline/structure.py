"""Degree classes, branches, pendent cycles, and exact trail searches.

A branch is a maximal nontrivial path whose ends have degree != 2 and whose
internal vertices all have degree 2.  A cycle attached to exactly one such
end is kept as a *closed* branch (both endpoints equal, ``is_closed`` set);
components that are bare cycles of degree-2 vertices contribute no branches.

The trail searches (maximum trail, dominating trail) are exact backtracking
with memoized pruning on one explicit-stack walk, so long inputs need no
recursion; on budget exhaustion they report Unknown rather than None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Mapping

from .budget import Budget, BudgetExhausted, Unknown
from .graphcore import (
    DisconnectedGraphError,
    InputError,
    MultiGraph,
    Trail,
    is_connected,
    trivial_trail,
)


@dataclass(frozen=True)
class DegreeClasses:
    """Partition of the vertex set by degree, with the derived high/low classes."""

    by_degree: Mapping[int, frozenset[int]]
    v_ge3: frozenset[int]
    w: frozenset[int]

    def of(self, i: int) -> frozenset[int]:
        return self.by_degree.get(i, frozenset())


def degree_classes(g: MultiGraph) -> DegreeClasses:
    by_degree: dict[int, set[int]] = {}
    for v in range(g.vertex_count):
        by_degree.setdefault(g.degree(v), set()).add(v)
    frozen = {d: frozenset(vs) for d, vs in by_degree.items()}
    v_ge3 = frozenset(v for v in range(g.vertex_count) if g.degree(v) >= 3)
    w = frozenset(v for v in range(g.vertex_count) if g.degree(v) != 2)
    return DegreeClasses(frozen, v_ge3, w)


@dataclass(frozen=True)
class Branch:
    """Maximal path with ends of degree != 2 and degree-2 internal vertices."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    is_closed: bool
    touches_degree_one: bool

    @property
    def length(self) -> int:
        return len(self.edge_ids)


def _branch_walk(g: MultiGraph):
    """Walk out every branch; returns (branches, used-edge flags)."""
    deg = [g.degree(v) for v in range(g.vertex_count)]
    w_set = {v for v in range(g.vertex_count) if deg[v] != 2}
    used = [False] * g.edge_count
    found: list[Branch] = []
    for w in sorted(w_set):
        for start_eid in g.incidence[w]:
            if used[start_eid]:
                continue
            verts = [w]
            eids = []
            cur_v, cur_e = w, start_eid
            while True:
                used[cur_e] = True
                eids.append(cur_e)
                nxt = g.other_end(cur_e, cur_v)
                verts.append(nxt)
                if nxt in w_set:
                    break
                e1, e2 = g.incidence[nxt]
                cur_e = e2 if e1 == cur_e else e1
                cur_v = nxt
            closed = verts[0] == verts[-1]
            if not closed and verts[0] > verts[-1]:
                verts.reverse()
                eids.reverse()
            found.append(
                Branch(
                    tuple(verts),
                    tuple(eids),
                    is_closed=closed,
                    touches_degree_one=deg[verts[0]] == 1 or deg[verts[-1]] == 1,
                )
            )
    found.sort(key=lambda b: b.edge_ids)
    return found, used


def branches(g: MultiGraph) -> tuple[Branch, ...]:
    """All branches B(G), closed ones included; bare-cycle components yield none."""
    found, _ = _branch_walk(g)
    return tuple(found)


def branches_b1(g: MultiGraph) -> tuple[Branch, ...]:
    """Branches that touch a degree-1 vertex."""
    return tuple(b for b in branches(g) if b.touches_degree_one)


def cycle_component_edges(g: MultiGraph) -> tuple[tuple[int, ...], ...]:
    """Edge ids of each bare-cycle component (every vertex degree 2), in cyclic order."""
    _, used = _branch_walk(g)
    comps = []
    for eid in range(g.edge_count):
        if used[eid]:
            continue
        v0 = g.edges[eid][0]
        cyc = []
        cur_e, cur_v = eid, v0
        while True:
            used[cur_e] = True
            cyc.append(cur_e)
            cur_v = g.other_end(cur_e, cur_v)
            if cur_v == v0:
                break
            e1, e2 = g.incidence[cur_v]
            cur_e = e2 if e1 == cur_e else e1
        comps.append(tuple(cyc))
    return tuple(comps)


def pendent_cycles(g: MultiGraph) -> tuple[Trail, ...]:
    """Cycles meeting the degree->=3 vertex set in exactly one vertex.

    Cycles are edge sets here: a 2-cycle (two parallel edges) counts, and
    parallel alternatives along the same vertex sequence are distinct cycles.
    Each is returned as a closed trail starting at its smallest vertex.
    """
    n = g.vertex_count
    v3 = frozenset(v for v in range(n) if g.degree(v) >= 3)
    seen: set[frozenset[int]] = set()
    out: list[Trail] = []

    def record(verts: list[int], eids: list[int]) -> None:
        key = frozenset(eids)
        if key in seen:
            return
        seen.add(key)
        if len([v for v in verts if v in v3]) != 1:
            return
        # Canonical orientation: the direction with the smaller edge tuple.
        fwd = tuple(eids)
        rev = tuple(reversed(eids))
        if rev < fwd:
            verts = [verts[0]] + list(reversed(verts[1:]))
            eids = list(rev)
        out.append(Trail(tuple(verts) + (verts[0],), tuple(eids), True))

    inc = g.incidence
    for s in range(n):
        # Paths from s through vertices > s only, closing back at s.
        stack: list[tuple[int, list[int], list[int]]] = [(s, [s], [])]
        while stack:
            v, verts, eids = stack.pop()
            for eid in inc[v]:
                if eid in eids:
                    continue
                w = g.other_end(eid, v)
                if w == s:
                    if len(eids) >= 1:
                        record(verts, eids + [eid])
                    continue
                if w < s or w in verts:
                    continue
                stack.append((w, verts + [w], eids + [eid]))
    out.sort(key=lambda t: tuple(sorted(t.edge_ids)))
    return tuple(out)


_STOP, _PRUNE, _EXPAND = range(3)


def _walk_trails(
    g: MultiGraph,
    budget: Budget,
    closed: bool,
    visit: Callable[[int, int, int, list[int], list[int]], int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Depth-first walk over the trails of ``g``, on an explicit stack.

    Trails start at each vertex in turn and grow by one unused edge at a
    time, in incidence order.  Every step costs one ``budget.tick()``; a
    step into a state (end vertex, used-edge mask) seen before goes no
    further.  Otherwise ``visit(v, used, vmask, path_v, path_e)`` answers
    _STOP, _PRUNE or _EXPAND for the trail ``path_v``/``path_e`` ending at
    ``v``.  A closed trail can start at its smallest vertex, so a closed walk
    only steps to vertices >= start and forgets its states at each new start;
    it visits only nonempty trails back at their start and expands all others.
    Returns the trail ``visit`` stopped at, as (vertices, edge ids), or None.
    """
    inc = g.incidence
    # An edge's endpoints xor-ed together: the far end of eid from v is
    # ends[eid] ^ v.
    ends = [a ^ b for a, b in g.edges]
    tick = budget.tick
    seen: set[tuple[int, int]] = set()
    for start in range(g.vertex_count):
        if closed:
            seen = set()
        path_v = [start]
        path_e: list[int] = []
        tick()
        if not closed:
            action = visit(start, 0, 1 << start, path_v, path_e)
            if action == _STOP:
                return tuple(path_v), tuple(path_e)
            if action == _PRUNE:
                continue
        stack = []
        v, used, vmask, steps = start, 0, 1 << start, iter(inc[start])
        while True:
            for eid in steps:
                if used >> eid & 1:
                    continue
                w = ends[eid] ^ v
                if closed and w < start:
                    continue
                tick()
                w_used = used | 1 << eid
                state = (w, w_used)
                if state in seen:
                    continue
                seen.add(state)
                w_mask = vmask | 1 << w
                path_v.append(w)
                path_e.append(eid)
                if closed and w != start:
                    action = _EXPAND
                else:
                    action = visit(w, w_used, w_mask, path_v, path_e)
                if action == _STOP:
                    return tuple(path_v), tuple(path_e)
                if action == _EXPAND:
                    stack.append((v, used, vmask, steps))
                    v, used, vmask, steps = w, w_used, w_mask, iter(inc[w])
                    break
                path_v.pop()
                path_e.pop()
            else:
                if not stack:
                    break
                v, used, vmask, steps = stack.pop()
                path_v.pop()
                path_e.pop()
    return None


@dataclass(frozen=True)
class MaxTrailResult:
    """A trail with the most distinct vertices, preferring coverage of degree->=3 vertices.

    ``mt_star`` counts distinct vertices of the witness; ``d3_star`` counts
    degree->=3 vertices the witness misses.
    """

    trail: Trail
    mt_star: int
    d3_star: int


def max_trail(
    g: MultiGraph,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> MaxTrailResult | Unknown:
    """Exhaustive search for a maximum trail.

    Objective: maximize the number of distinct vertices, then (tie-break)
    the number of degree->=3 vertices covered.  States (current vertex, used
    edges) determine all future extensions, so revisited states are skipped;
    an optimistic reachability bound prunes the rest.
    """
    if g.vertex_count == 0:
        raise InputError("max_trail requires a nonempty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("max_trail requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    v3_mask = 0
    for v in range(n):
        if g.degree(v) >= 3:
            v3_mask |= 1 << v
    edges = g.edges
    inc = g.incidence

    # Best-so-far, seeded with the best trivial trail.
    if v3_mask:
        seed = (v3_mask & -v3_mask).bit_length() - 1
        best_cov = 1
    else:
        seed = 0
        best_cov = 0
    best_count = 1
    best_vs: tuple[int, ...] = (seed,)
    best_es: tuple[int, ...] = ()

    def reach_mask(v: int, used: int) -> int:
        mask = 1 << v
        queue = [v]
        while queue:
            u = queue.pop()
            for eid in inc[u]:
                if used >> eid & 1:
                    continue
                a, b = edges[eid]
                w = b if a == u else a
                bit = 1 << w
                if not mask & bit:
                    mask |= bit
                    queue.append(w)
        return mask

    def visit(v: int, used: int, vmask: int, path_v: list[int], path_e: list[int]) -> int:
        nonlocal best_count, best_cov, best_vs, best_es
        count = vmask.bit_count()
        cov = (vmask & v3_mask).bit_count()
        if count > best_count or (count == best_count and cov > best_cov):
            best_count, best_cov = count, cov
            best_vs, best_es = tuple(path_v), tuple(path_e)
        ub = vmask | reach_mask(v, used)
        ub_count = ub.bit_count()
        if ub_count < best_count:
            return _PRUNE
        if ub_count == best_count and (ub & v3_mask).bit_count() <= best_cov:
            return _PRUNE
        return _EXPAND

    try:
        _walk_trails(g, Budget(node_budget, time_limit), False, visit)
    except BudgetExhausted as exc:
        return Unknown("max_trail", exc.spent, f"graph with {n} vertices, {m} edges")

    trail = Trail(best_vs, best_es, best_vs[0] == best_vs[-1])
    return MaxTrailResult(trail, best_count, v3_mask.bit_count() - best_cov)


def dominates(g: MultiGraph, vertices: Iterable[int]) -> bool:
    """True iff every edge of ``g`` has at least one endpoint in ``vertices``."""
    vs = set(vertices)
    return all(u in vs or v in vs for u, v in g.edges)


def find_dominating_trail(
    g: MultiGraph,
    closed: bool = False,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> Trail | None | Unknown:
    """First trail (closed, if requested) whose vertices touch every edge.

    Trivial one-vertex trails are admitted when a single vertex meets every
    edge (stars).  Returns None only after exhausting the trail space.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("dominating-trail search requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    inc = g.incidence
    for v in range(n):
        if len(inc[v]) == m:
            return trivial_trail(v)

    edge_vmask = [(1 << u) | (1 << v) for u, v in g.edges]

    def visit(v: int, used: int, vmask: int, path_v: list[int], path_e: list[int]) -> int:
        # No single vertex dominates here, so no trivial trail stops.
        return _STOP if all(map(vmask.__and__, edge_vmask)) else _EXPAND

    try:
        found = _walk_trails(g, Budget(node_budget, time_limit), closed, visit)
    except BudgetExhausted as exc:
        return Unknown(
            "find_dominating_trail",
            exc.spent,
            f"{'closed' if closed else 'open'} search on graph with {n} vertices, {m} edges",
        )
    if found is None:
        return None
    vertices, edge_ids = found
    return Trail(vertices, edge_ids, vertices[0] == vertices[-1])
