"""Branches and exact trail searches.

A branch is a maximal nontrivial path whose ends have degree != 2 and whose
internal vertices all have degree 2.  A cycle attached to exactly one such
end is kept as a *closed* branch (both endpoints equal, ``is_closed`` set);
components that are bare cycles of degree-2 vertices contribute no branches.

The trail searches (maximum trail, dominating trail) are exact backtracking
on one explicit-stack walk, so long inputs need no recursion, with a memo of
used-edge masks per start that stops growing at a fixed size; on budget
exhaustion they report Unknown rather than None.  Three prunes keep the walk
small, each exact by a one-line fact:

* An open walk starts only at odd-degree vertices, the leaves (degree 1)
  first and then the others, each group in increasing id, or at vertex 0
  when there are none.  Extending a trail loses no vertex, covered
  degree->=3 vertex or domination, so an optimal or dominating trail can be
  taken maximal; a maximal open trail has used every edge at its ends,
  which are therefore odd, and a maximal closed trail exists only when G is
  Eulerian (otherwise it extends at an odd vertex on it, or by a path to
  one off it), where an Euler circuit can start at 0.  The order among the
  odd starts only decides which optimum or dominating trail comes first.
  Leaves go first since a leaf can only end a trail: a walk from one has a
  single way out, and on trees and long branches its first descent runs
  from end to end, while the smallest odd id can be any inner vertex, so
  the cost of starting there depends on the labels alone.
* A closed walk never steps onto a bridge: a closed trail is an
  edge-disjoint union of cycles, and no cycle uses a bridge.
* A vertex set dominates iff the vertices outside it are independent, which
  is tested on neighbour bitmasks, one per vertex outside, not per edge.

The bridge tree (2-edge-connected pieces joined by bridges) serves three
times, since a trail crosses each bridge at most once and so touches the
pieces of one tree path.  Every use reads the tree that the graph caches,
:attr:`~itline.graphcore.MultiGraph.bridge_tree`: one iterative lowpoint
DFS per graph object finds the bridges and closes each piece as it leaves
it by its bridge, so children close before parents.  A closed walk starts
with the tree's bridges marked used.  :func:`max_trail` reads the tree
before its walk, and on a graph with a bridge also the tree's valued paths
(:attr:`~itline.graphcore.MultiGraph.bridge_tree_paths`, also computed
once per graph), which keep each piece's two best exits.
No trail beats the best path, so the search stops at a trail that reaches
it, and it prunes a trail that cannot beat the best even if it took the
rest of its piece and the best exit out of it that it has not used.  That
exit is one of the two: a trail that ends in a piece entered it by at most
one of its bridges.  A certificate settles some empty searches with no
walk at all: :func:`bridge_tree_rules_out_trail` reads from the same tree
that a dominating trail would have to cross a bridge that it cannot
(closed) or take three branches of the bridge tree at one piece (open).
The dominating-trail search itself does not consult it, since on the
common graph with a dominating trail the pass would only add cost;
``indices._index`` asks it first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Iterable, NamedTuple

from .budget import Budget, BudgetExhausted, Unknown
from .graphcore import (
    DisconnectedGraphError,
    InputError,
    MultiGraph,
    Trail,
    _unchecked,
    is_connected,
    trivial_trail,
)


class Branch(NamedTuple):
    """Maximal path with ends of degree != 2 and degree-2 internal vertices."""

    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    is_closed: bool
    touches_degree_one: bool

    @property
    def length(self) -> int:
        return len(self.edge_ids)


def _branch_walk(g: MultiGraph) -> tuple[list[Branch], bytearray]:
    """Walk out every branch, from its ends of degree != 2 in increasing
    order; returns (branches in walk order, used-edge flags)."""
    inc, ends = g.incidence, g.ends
    used = bytearray(g.edge_count)
    found: list[Branch] = []
    new = tuple.__new__
    for w, out in enumerate(inc):
        if len(out) == 2:
            continue
        for eid in out:
            if used[eid]:
                continue
            verts = [w]
            eids = []
            v = w
            while True:
                used[eid] = 1
                eids.append(eid)
                v ^= ends[eid]
                verts.append(v)
                around = inc[v]
                if len(around) != 2:
                    break
                e1, e2 = around
                eid = e2 if e1 == eid else e1
            # An open branch runs from its smaller end: its larger end, walked
            # later, finds the branch's edges used.  tuple.__new__ skips the
            # NamedTuple's Python-level __new__, ~15 % of a walk.
            found.append(new(Branch, (tuple(verts), tuple(eids), v == w,
                                      len(out) == 1 or len(around) == 1)))
    return found, used


def branches(g: MultiGraph) -> tuple[Branch, ...]:
    """All branches B(G), closed ones included, by their edge ids; bare-cycle
    components yield none."""
    found, _ = _branch_walk(g)
    # Branches share no edge, so the first edge id alone orders them.
    found.sort(key=itemgetter(1))
    return tuple(found)


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
            used[cur_e] = 1
            cyc.append(cur_e)
            cur_v = ends[cur_e] ^ cur_v
            if cur_v == v0:
                break
            e1, e2 = inc[cur_v]
            cur_e = e2 if e1 == cur_e else e1
        comps.append(tuple(cyc))
    return tuple(comps)


_STOP, _PRUNE, _EXPAND = range(3)

#: The most bits of used-edge masks that the memo of one start holds; past
#: it, new states are searched again rather than kept.
_MEMO_BITS = 1 << 29


def _walk_trails(
    g: MultiGraph,
    budget: Budget,
    closed: bool,
    visit: Callable[[int, int, int, list[int], list[int]], int],
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Depth-first walk over the trails of ``g``, on an explicit stack.

    Trails start at each start vertex in turn and grow by one unused edge at
    a time, in incidence order.  Every step costs one ``budget.tick()``; a
    step into a state seen before from the same start goes no further.  The
    state is the used-edge mask alone: a trail's edge set has its two ends as
    its odd-degree vertices (none when it is closed), so once the start is
    fixed the edges fix the end, and no two starts share a state.  Each start
    has its own memo, which stops taking states once it holds
    ``_MEMO_BITS`` bits of masks; a state it did not keep is only searched
    again.  Otherwise ``visit(v, used, vmask, path_v, path_e)`` answers
    _STOP, _PRUNE or _EXPAND for the trail ``path_v``/``path_e`` ending at
    ``v``.  An open walk starts at the odd-degree vertices only, leaves
    first, or at 0 when there are none (see the module docstring), and
    visits every trail.  A closed trail can start at its smallest vertex, so
    a closed walk starts at every vertex, only steps to vertices >= start
    and counts the bridges as used from the outset; it visits only nonempty
    trails back at their start and expands all others.
    Returns the trail ``visit`` stopped at, as (vertices, edge ids), or None.
    """
    inc, ends = g.incidence, g.ends
    tick = budget.tick
    room = _MEMO_BITS // (g.edge_count + 1)
    if closed:
        starts: Iterable[int] = range(g.vertex_count)
        blocked = g.bridge_tree.bridge_mask
    else:
        leaves, odd = [], []
        for v, ids in enumerate(inc):
            if len(ids) == 1:
                leaves.append(v)
            elif len(ids) % 2:
                odd.append(v)
        starts = leaves + odd or [0]
        blocked = 0
    for start in starts:
        seen: set[int] = set()
        path_v = [start]
        path_e: list[int] = []
        tick()
        if not closed:
            action = visit(start, 0, 1 << start, path_v, path_e)
            if action == _STOP:
                return tuple(path_v), tuple(path_e)
            if action == _PRUNE:
                continue
        # A frame holds the vertex mask and the edge iterator of a trail on
        # the path; on pop, its end is read off ``path_v`` and its used edges
        # by clearing the bit of the edge popped off ``path_e``.
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
                if w_used in seen:
                    continue
                if len(seen) < room:
                    seen.add(w_used)
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
                    stack.append((vmask, steps))
                    v, used, vmask, steps = w, w_used, w_mask, iter(inc[w])
                    break
                path_v.pop()
                path_e.pop()
            else:
                if not stack:
                    break
                vmask, steps = stack.pop()
                used ^= 1 << path_e.pop()
                path_v.pop()
                v = path_v[-1]
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
    start at odd-degree vertices only, leaves first (at 0 when G is
    Eulerian; see the module docstring); that order decides the witness
    among equal optima.  From a fixed start the used edges determine the end
    and all future extensions, so revisited states are skipped.  The search
    stops at the first trail that reaches an upper bound on every trail, and
    two optimistic bounds prune the rest:

    * The reach bound: the trail's vertices and those reachable from its
      end over unused edges.  It is kept per depth: a step that uses the
      last unused edge at the old end leaves it unchanged, so only other
      steps search for the reach.
    * The bridge-tree bound
      (:attr:`~itline.graphcore.MultiGraph.bridge_tree_paths`).  Before the
      walk starts, the search reads the graph's bridge tree and, when the
      graph has a bridge, the values of the tree's paths, both cached on
      the graph; the best value is the stop.  A trail is pruned when its
      own count, plus the unvisited vertices of its end's piece, plus the
      best exit from that piece by a bridge it has not used, cannot beat
      the best.  The trail has used at most one bridge of that piece, so
      the exit is the first or the second of the two the piece keeps.  A
      graph with no bridge is one piece, whose only path is all n
      vertices, which is then the stop; there the bound is never below the
      reach bound, so its paths are not valued and it is not applied.

    Both bounds cut only subtrees that hold no strictly better trail, and
    the best changes only on a strictly better trail, so the witness is
    the first optimum in search order.
    """
    if g.vertex_count == 0:
        raise InputError("max_trail requires a nonempty graph")
    if not is_connected(g):
        raise DisconnectedGraphError("max_trail requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    inc, ends = g.incidence, g.ends
    v3_mask = g.v3_mask
    inc_mask = [0] * n
    bit = 1
    for x, y in g.edges:
        inc_mask[x] |= bit
        inc_mask[y] |= bit
        bit <<= 1
    # A trail's key is count * scale + cov, which orders (count, cov) pairs.
    scale = n + 1

    # Best-so-far, seeded with the best trivial trail.
    if v3_mask:
        seed = (v3_mask & -v3_mask).bit_length() - 1
        best_key = scale + 1
    else:
        seed = 0
        best_key = scale
    best_vs: tuple[int, ...] = (seed,)
    best_es: tuple[int, ...] = ()
    # The stop, the best key any trail can have: all n vertices, or the bridge
    # tree's best path when the graph has a bridge.  Then ``pieces[piece_of[v]]``
    # is the vertex mask of v's piece and ``exits[piece_of[v]]`` its exits;
    # ``exits`` stays empty on a bridgeless graph.
    goal = n * scale + v3_mask.bit_count()
    pieces, piece_of, _, cut = g.bridge_tree
    exits: tuple[tuple[int, int, int, int], ...] = ()
    if cut:
        exits, goal = g.bridge_tree_paths
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
        nonlocal best_key, best_vs, best_es
        count = vmask.bit_count()
        key = count * scale + (vmask & v3_mask).bit_count()
        if key > best_key:
            best_key, best_vs, best_es = key, tuple(path_v), tuple(path_e)
            if key == goal:
                return _STOP
        if exits:
            p = piece_of[v]
            rest = pieces[p] & ~vmask
            ub_key = key + rest.bit_count() * scale + (rest & v3_mask).bit_count()
            top_value, top_eid, second_value, _ = exits[p]
            ub_key += second_value if used >> top_eid & 1 else top_value
            if ub_key <= best_key:
                return _PRUNE
        best_count = best_key // scale
        depth = len(path_e)
        ub, whole = 0, False
        if depth and not inc_mask[path_v[-2]] & ~used:
            # The step used the old end's last unused edge, so the new end
            # reaches what the old end did, less the old end: ub is unchanged.
            ub, whole = bounds[depth - 1]
        if not whole and ub.bit_count() <= best_count:
            reach, whole = reach_mask(v, used, vmask, best_count + 1 - count)
            ub = vmask | reach
        if whole and ub.bit_count() * scale + (ub & v3_mask).bit_count() <= best_key:
            return _PRUNE
        bounds[depth] = ub, whole
        return _EXPAND

    try:
        _walk_trails(g, Budget(node_budget, time_limit), False, visit)
    except BudgetExhausted as exc:
        return Unknown("max_trail", exc.spent, f"graph with {n} vertices, {m} edges")

    trail = _unchecked(Trail, best_vs, best_es, best_vs[0] == best_vs[-1])
    return MaxTrailResult(trail, best_key // scale, v3_mask.bit_count() - best_key % scale)


def bridge_tree_rules_out_trail(g: MultiGraph, closed: bool) -> bool:
    """True when G's bridges alone show that no dominating (closed) trail exists.

    Call a bridge *inner* when both its ends have degree >= 2.  A vertex set
    on one side of an inner bridge misses the other end's other edges, so a
    dominating trail has vertices on both sides and crosses it.  A closed
    trail crosses no bridge, so any inner bridge rules it out.  An open
    trail crosses each bridge at most once, so the 2-edge-connected pieces
    it touches lie on one path of the bridge tree, which meets each piece
    by at most two of its bridges; so a piece that meets three or more
    inner bridges rules it out.  False says nothing: the trail search
    decides.  The bridges and the pieces come from the graph's cached
    :attr:`~itline.graphcore.MultiGraph.bridge_tree`.
    """
    inc, edges = g.incidence, g.edges
    _, piece_of, up, _ = g.bridge_tree
    inner = [edges[eid] for eid in up if eid >= 0 and all(len(inc[x]) >= 2 for x in edges[eid])]
    if closed:
        return bool(inner)
    if len(inner) < 3:
        return False
    met = Counter(piece_of[x] for ends in inner for x in ends)
    return max(met.values()) >= 3


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
    open search starts at odd-degree vertices only, leaves first (at 0 when
    G is Eulerian), so the first trail found follows that order: a
    dominating trail extends to a maximal one, whose ends are odd.  A closed
    search skips bridges, which no closed trail uses, so the first closed
    trail is the one the walk over all edges would find.  Domination holds
    iff no vertex off the trail has a neighbour off the trail, one bitmask
    test per vertex off the trail.
    """
    if not is_connected(g):
        raise DisconnectedGraphError("dominating-trail search requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    degrees = list(map(len, g.incidence))
    if m in degrees:
        return trivial_trail(degrees.index(m))

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
