"""Degree classes, branches, pendent cycles, and exact trail searches.

A branch is a maximal nontrivial path whose ends have degree != 2 and whose
internal vertices all have degree 2.  A cycle attached to exactly one such
end is kept as a *closed* branch (both endpoints equal, ``is_closed`` set);
components that are bare cycles of degree-2 vertices contribute no branches.

The trail searches (maximum trail, dominating trail) are exact backtracking
with memoized pruning on one explicit-stack walk, so long inputs need no
recursion; on budget exhaustion they report Unknown rather than None.  Three
prunes keep the walk small, each exact by a one-line fact:

* An open walk starts only at odd-degree vertices (at vertex 0 when there
  are none).  Extending a trail loses no vertex, covered degree->=3 vertex
  or domination, so an optimal or dominating trail can be taken maximal; a
  maximal open trail has used every edge at its ends, which are therefore
  odd, and a maximal closed trail exists only when G is Eulerian (otherwise
  it extends at an odd vertex on it, or by a path to one off it), where an
  Euler circuit can start at 0.  So the first open trail found follows this
  odd-start order.
* A closed walk never steps onto a bridge: a closed trail is an
  edge-disjoint union of cycles, and no cycle uses a bridge.
* A vertex set dominates iff the vertices outside it are independent, which
  is tested on neighbour bitmasks, one per vertex outside, not per edge.
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
    _unchecked,
    bridges,
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
    inc, ends = g.incidence, g.ends
    w_set = {v for v, ids in enumerate(inc) if len(ids) != 2}
    used = [False] * g.edge_count
    found: list[Branch] = []
    for w in sorted(w_set):
        for start_eid in inc[w]:
            if used[start_eid]:
                continue
            verts = [w]
            eids = []
            cur_v, cur_e = w, start_eid
            while True:
                used[cur_e] = True
                eids.append(cur_e)
                nxt = ends[cur_e] ^ cur_v
                verts.append(nxt)
                if nxt in w_set:
                    break
                e1, e2 = inc[nxt]
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
                    touches_degree_one=len(inc[verts[0]]) == 1 or len(inc[verts[-1]]) == 1,
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
    inc, ends = g.incidence, g.ends
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
            cur_v = ends[cur_e] ^ cur_v
            if cur_v == v0:
                break
            e1, e2 = inc[cur_v]
            cur_e = e2 if e1 == cur_e else e1
        comps.append(tuple(cyc))
    return tuple(comps)


def pendent_cycles(g: MultiGraph) -> tuple[Trail, ...]:
    """Cycles meeting the degree->=3 vertex set in exactly one vertex.

    These are exactly the closed branches: the other vertices of such a
    cycle have degree 2, so the branch walk from its one degree->=3 vertex
    goes round it and back.  A 2-cycle (two parallel edges) counts.  Each is
    returned as a closed trail that starts at that attachment vertex and
    leaves it by the smaller of its two edges there; the trails are sorted
    by their sorted edge ids.
    """
    closed = sorted(
        (b for b in branches(g) if b.is_closed), key=lambda b: sorted(b.edge_ids)
    )
    return tuple(Trail(b.vertices, b.edge_ids, True) for b in closed)


_STOP, _PRUNE, _EXPAND = range(3)


def _walk_trails(
    g: MultiGraph,
    budget: Budget,
    closed: bool,
    visit: Callable[[int, int, int, list[int], list[int]], int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Depth-first walk over the trails of ``g``, on an explicit stack.

    Trails start at each start vertex in turn and grow by one unused edge at
    a time, in incidence order.  Every step costs one ``budget.tick()``; a
    step into a state (end vertex, used-edge mask) seen before goes no
    further.  Otherwise ``visit(v, used, vmask, path_v, path_e)`` answers
    _STOP, _PRUNE or _EXPAND for the trail ``path_v``/``path_e`` ending at
    ``v``.  An open walk starts at the odd-degree vertices only, or at 0 when
    there are none (see the module docstring), and visits every trail.  A
    closed trail can start at its smallest vertex, so a closed walk starts at
    every vertex, only steps to vertices >= start, forgets its states at each
    new start and counts the bridges as used from the outset; it visits only
    nonempty trails back at their start and expands all others.
    Returns the trail ``visit`` stopped at, as (vertices, edge ids), or None.
    """
    inc, ends = g.incidence, g.ends
    tick = budget.tick
    seen: set[tuple[int, int]] = set()
    if closed:
        starts: Iterable[int] = range(g.vertex_count)
        blocked = sum(1 << eid for eid in bridges(g))
    else:
        starts = [v for v in range(g.vertex_count) if len(inc[v]) % 2] or [0]
        blocked = 0
    for start in starts:
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
        v, used, vmask, steps = start, blocked, 1 << start, iter(inc[start])
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
    the number of degree->=3 vertices covered.  Extending a trail never
    lowers either, so an optimal trail can be taken maximal, and trails
    start at odd-degree vertices only (at 0 when G is Eulerian; see the
    module docstring), in increasing order, which decides the witness among
    equal optima.  The search stops at the first trail through all n
    vertices, which also covers every degree->=3 vertex.  States (current
    vertex, used edges) determine all future extensions, so revisited states
    are skipped; an optimistic reachability bound prunes the rest.  The
    bound is kept per depth: a step that uses the last unused edge at the
    old end leaves it unchanged, so only other steps search for the reach
    over unused edges.
    """
    if g.vertex_count == 0:
        raise InputError("max_trail requires a nonempty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("max_trail requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    inc, ends = g.incidence, g.ends
    v3_mask = sum(1 << v for v, ids in enumerate(inc) if len(ids) >= 3)
    inc_mask = [sum(1 << eid for eid in inc[v]) for v in range(n)]

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
    # bounds[d]: (ub, whole) for the trail of d edges being expanded.  ``ub``
    # holds the trail's vertices and those reachable from its end over unused
    # edges: all of them when ``whole``, else more than the best count at the
    # time.
    bounds: list[tuple[int, bool]] = [(0, False)] * (m + 1)

    def reach_mask(v: int, used: int, vmask: int, room: int) -> tuple[int, bool]:
        """Vertices reachable from ``v`` over unused edges, and True; or those
        found once ``room`` of them lie outside ``vmask`` (the bound can then
        no longer prune), and False.  It steps over edge ids, not vertex
        masks, so graphcore's flood cannot serve it."""
        mask = 1 << v
        queue = [v]
        for u in queue:
            for eid in inc[u]:
                if used >> eid & 1:
                    continue
                w = ends[eid] ^ u
                bit = 1 << w
                if not mask & bit:
                    mask |= bit
                    if not vmask & bit:
                        room -= 1
                        if not room:
                            return mask, False
                    queue.append(w)
        return mask, True

    def visit(v: int, used: int, vmask: int, path_v: list[int], path_e: list[int]) -> int:
        nonlocal best_count, best_cov, best_vs, best_es
        count = vmask.bit_count()
        cov = (vmask & v3_mask).bit_count()
        if count > best_count or (count == best_count and cov > best_cov):
            best_count, best_cov = count, cov
            best_vs, best_es = tuple(path_v), tuple(path_e)
            if count == n:
                return _STOP
        depth = len(path_e)
        ub, whole = 0, False
        if depth and not inc_mask[path_v[-2]] & ~used:
            # The step used the old end's last unused edge, so the new end
            # reaches what the old end did, less the old end: ub is unchanged.
            ub, whole = bounds[depth - 1]
        if not whole and ub.bit_count() <= best_count:
            reach, whole = reach_mask(v, used, vmask, best_count + 1 - count)
            ub = vmask | reach
        if whole:
            ub_count = ub.bit_count()
            if ub_count < best_count:
                return _PRUNE
            if ub_count == best_count and (ub & v3_mask).bit_count() <= best_cov:
                return _PRUNE
        bounds[depth] = ub, whole
        return _EXPAND

    try:
        _walk_trails(g, Budget(node_budget, time_limit), False, visit)
    except BudgetExhausted as exc:
        return Unknown("max_trail", exc.spent, f"graph with {n} vertices, {m} edges")

    trail = _unchecked(Trail, best_vs, best_es, best_vs[0] == best_vs[-1])
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
    edge (stars).  Returns None only after exhausting the trail space.  An
    open search starts at odd-degree vertices only (at 0 when G is Eulerian),
    in increasing order, so the first trail found follows that order: a
    dominating trail extends to a maximal one, whose ends are odd.  A closed
    search skips bridges, which no closed trail uses, so the first closed
    trail is the one the walk over all edges would find.  Domination holds
    iff no vertex off the trail has a neighbour off the trail, one bitmask
    test per vertex off the trail.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("dominating-trail search requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    inc = g.incidence
    for v in range(n):
        if len(inc[v]) == m:
            return trivial_trail(v)

    nbr_mask = g.neighbor_masks
    everyone = (1 << n) - 1

    def visit(v: int, used: int, vmask: int, path_v: list[int], path_e: list[int]) -> int:
        # No single vertex dominates here, so no trivial trail stops.
        off = everyone ^ vmask
        rest = off
        while rest:
            bit = rest & -rest
            if nbr_mask[bit.bit_length() - 1] & off:
                return _EXPAND
            rest ^= bit
        return _STOP

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
    return _unchecked(Trail, vertices, edge_ids, vertices[0] == vertices[-1])
