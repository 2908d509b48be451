"""Membership checking and witness search for the EU_k / EUP_k subgraph families.

A subgraph H of a connected graph G belongs to EU_k(G) when

  * parity: every vertex of H has even degree in H,
  * coverage: isolated vertices of H have degree >= 3 in G, and every
    degree->=3 vertex of G lies in H,
  * proximity: the components of H are mutually within distance k-1
    (formally, every split of the components has crossing distance <= k-1),
  * avoided branches: every branch of G edge-disjoint from H has at most
    k+1 edges,
  * pendant branches: every branch touching a degree-1 vertex has at most
    k edges.

EUP_k(G) relaxes parity to "at most two odd vertices" and restricts the
pendant-branch condition to branches edge-disjoint from H.  Nonemptiness of
these families characterizes hamiltonicity / traceability of the k-th
iterated line graph for k >= 2.

The witness search prunes by parity, avoided branches and a proximity
lookahead (see :func:`find_witness`).  Before it expands a node, a pendant
parity certificate settles graphs with more pendant branches of over k
edges than the parity budget allows: each such branch fails EU, and under
EUP must meet H, which leaves an odd vertex of H inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress

from .budget import Budget, BudgetExhausted, Unknown
from .graphcore import (
    DisconnectedGraphError,
    GraphError,
    InputError,
    MultiGraph,
    SubgraphH,
    _flood,
    _subgraph_masks,
    _unchecked,
    is_connected,
    mask_members,
    subgraph,
)
from . import structure
from .structure import branches, cycle_component_edges

VARIANT_EU = "eu"
VARIANT_EUP = "eup"


def _norm_variant(variant: str) -> str:
    v = variant.lower()
    if v not in (VARIANT_EU, VARIANT_EUP):
        raise InputError(f"variant must be 'eu' or 'eup', got {variant!r}")
    return v


@dataclass(frozen=True)
class Verdict:
    ok: bool
    detail: str = ""


_PASS = Verdict(True)


@dataclass(frozen=True)
class ConditionReport:
    """Per-condition verdicts for one (H, k, variant) membership query."""

    variant: str
    k: int
    parity: Verdict
    coverage: Verdict
    proximity: Verdict
    avoided_branches: Verdict
    pendant_branches: Verdict

    @property
    def overall(self) -> bool:
        return (
            self.parity.ok
            and self.coverage.ok
            and self.proximity.ok
            and self.avoided_branches.ok
            and self.pendant_branches.ok
        )

    def to_dict(self) -> dict:
        def v(x: Verdict) -> dict:
            return {"ok": x.ok, "detail": x.detail}

        return {
            "variant": self.variant,
            "k": self.k,
            "overall": self.overall,
            "conditions": {
                "parity": v(self.parity),
                "coverage": v(self.coverage),
                "proximity": v(self.proximity),
                "avoided_branches": v(self.avoided_branches),
                "pendant_branches": v(self.pendant_branches),
            },
        }


def _ball_masks(g: MultiGraph, radius: int) -> list[int]:
    """Bitmask of the vertices within ``radius`` of each vertex."""
    nbr = g.neighbor_masks
    if radius == 1:  # the common case, k = 2, without a flood per vertex
        return [m | 1 << v for v, m in enumerate(nbr)]
    return [_flood(nbr, 1 << v, radius=radius) for v in range(g.vertex_count)]


def _proximity_ok(g: MultiGraph, comps: list[int], k: int) -> tuple[bool, str]:
    """Components (vertex masks) must be mutually linkable through gaps of at most k-1.

    Equivalent to: for every bipartition of the components, some cross pair
    is within distance k-1; checked as connectivity of the threshold graph.
    The class of the first component grows by every component that meets
    the radius-(k-1) ball of the components that joined it last, so each
    component's ball is grown once, by one flood cut at radius k-1 per
    round of joins.
    """
    if len(comps) <= 1:
        return True, ""
    threshold = k - 1
    nbr = g.neighbor_masks
    rest, todo = comps[1:], comps[0]
    while todo and rest:
        hit = _flood(nbr, todo, radius=threshold)
        todo = sum([c for c in rest if c & hit])  # the components are disjoint
        rest = [c for c in rest if not c & hit]
    if not rest:
        return True, ""
    far = mask_members(sum(rest))
    return False, f"components on vertices {far} are farther than {threshold} from the rest"


class _LiveLinks:
    """At radius 0, ``links[x]`` is the far ends of the edges at ``x`` that
    are not excluded, as a bitmask: edge ``steps[i][0]`` is excluded when
    ``take[i]`` is 0 (see :func:`find_witness`)."""

    __slots__ = ("inc", "ends", "take", "depth")

    def __init__(self, g: MultiGraph, take: list[int], steps: list[tuple]):
        self.inc = g.incidence
        self.ends = g.ends
        self.take = take
        self.depth = [0] * len(steps)
        for i, step in enumerate(steps):
            self.depth[step[0]] = i

    def __getitem__(self, x: int) -> int:
        ends, take, depth = self.ends, self.take, self.depth
        mask = 0
        for eid in self.inc[x]:
            if take[depth[eid]]:
                mask |= 1 << (ends[eid] ^ x)
        return mask


def check_conditions(g: MultiGraph, h: SubgraphH, k: int, variant: str) -> ConditionReport:
    """Evaluate every membership condition directly from its definition."""
    variant = _norm_variant(variant)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    h = subgraph(g, h.edge_ids, h.extra_vertices)  # revalidates against g
    return ConditionReport(variant, k, *_verdicts(g, h, k, variant, branches(g)))


def _verdicts(g: MultiGraph, h: SubgraphH, k: int, variant: str, blist) -> tuple[Verdict, ...]:
    """The verdicts of :func:`check_conditions`, in :class:`ConditionReport`'s
    order, of a subgraph valid in ``g``, given G's branches."""
    verts, odd_mask, comps = _subgraph_masks(g, h)
    parity = _PASS
    if variant == VARIANT_EU and odd_mask:
        parity = Verdict(False, f"odd degree in H at vertex {mask_members(odd_mask)[0]}")
    elif odd_mask.bit_count() > 2:
        odd = mask_members(odd_mask)
        parity = Verdict(False, f"{len(odd)} odd vertices in H: {odd}")

    # H's isolated vertices are its extra vertices.
    v3 = g.v3_mask
    bad_isolated = [v for v in h.extra_vertices if not v3 >> v & 1]
    missing = v3 & ~verts
    coverage = _PASS
    if bad_isolated:
        v = min(bad_isolated)
        coverage = Verdict(False, f"isolated vertex {v} has degree {g.degree(v)} < 3 in G")
    elif missing:
        v = (missing & -missing).bit_length() - 1
        coverage = Verdict(False, f"degree->=3 vertex {v} is not in H")

    ok, detail = _proximity_ok(g, comps, k)
    proximity = _PASS if ok else Verdict(False, detail)

    # Only branches of more than k edges can fail either branch condition.
    avoided = pendant = _PASS
    hedges = h.edge_ids
    for b in blist:
        length = len(b.edge_ids)
        if length <= k:
            continue
        disjoint = hedges.isdisjoint(b.edge_ids)
        if disjoint and length > k + 1 and avoided.ok:
            avoided = Verdict(
                False,
                f"branch {list(b.vertices)} with {length} edges avoids H (limit {k + 1})",
            )
        if b.touches_degree_one and (variant == VARIANT_EU or disjoint) and pendant.ok:
            qualifier = "" if variant == VARIANT_EU else " and avoids H"
            pendant = Verdict(
                False,
                f"pendant branch {list(b.vertices)} has {length} edges{qualifier} (limit {k})",
            )
    return parity, coverage, proximity, avoided, pendant


def canonical_candidate(g: MultiGraph, edge_ids) -> SubgraphH:
    """The unique coverage-satisfying subgraph with the given edge set.

    Degree->=3 vertices not touched by the edges become the subgraph's
    isolated vertices; any member of EU_k/EUP_k has exactly this shape, so
    searching over edge sets alone is complete.
    """
    edge_ids = frozenset(edge_ids)
    for eid in edge_ids:
        g.endpoints(eid)  # validates the edge id
    return _candidate(g, frozenset(map(int, edge_ids)))


def _candidate(g: MultiGraph, edge_ids: frozenset[int]) -> SubgraphH:
    """:func:`canonical_candidate` of edge ids valid in ``g``, read unchecked."""
    edges = g.edges
    covered = 0
    for eid in edge_ids:
        u, v = edges[eid]
        covered |= 1 << u | 1 << v
    return _unchecked(SubgraphH, edge_ids, frozenset(mask_members(g.v3_mask & ~covered)))


def witness_to_json(h: SubgraphH, report: ConditionReport) -> dict:
    return {
        "edges": sorted(h.edge_ids),
        "isolated_vertices": sorted(h.extra_vertices),
        "report": report.to_dict(),
    }


def find_witness(
    g: MultiGraph,
    k: int,
    variant: str,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> SubgraphH | None | Unknown:
    """First member of EU_k(G) / EUP_k(G) in canonical search order, or None.

    The search walks edge decisions branch by branch (branch internals are
    contiguous, exclude tried before include), counting odd vertices as they
    finalize against the parity budget (0 for EU, 2 for EUP) and failing a
    branch as soon as it is fully avoided but too long.  A proximity
    lookahead prunes every other subtree without a witness: after each
    decision, the required items (the chosen edges and every degree->=3
    vertex) must lie in one class of the items still available (chosen and
    undecided edges, degree->=3 vertices), linked through each vertex's
    radius-(k-1) ball (one :func:`_flood`).  The class is kept per depth and
    updated incrementally: an include only tests that its edge meets the
    class, and an exclude regrows the class only when it takes a vertex out
    of the items and the class may split.  At the last depth the available
    items are exactly the leaf's subgraph, so a leaf that gets there
    satisfies every condition; it is built as :func:`canonical_candidate`
    builds it, without rechecking edge ids the search produced, and
    rechecked by the conditions of :func:`check_conditions`, on the branches
    walked here, before it is returned.  A sound prune cannot
    change the first witness in search order.  The empty subgraph is not
    considered a witness.
    """
    variant = _norm_variant(variant)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    if not is_connected(g):
        raise DisconnectedGraphError("witness search requires a connected graph")
    n, m = g.vertex_count, g.edge_count
    edges = g.edges
    blist, _ = structure._branch_walk(g)

    # A pendant branch of more than k edges fails EU outright, since EU's
    # pendant condition ignores H, and for EUP it must meet H.  The H-edge
    # nearest its degree-1 end then leaves an odd vertex of H inside it, so
    # more such branches than the parity budget (0 for EU, 2 for EUP) leave
    # no witness, decided up front for the whole graph.
    #
    # Branches that fail when avoided are decided first, then longer ones,
    # ties by edge ids, in the one sort of the walk's branches.  A pendant
    # one fails past k edges (under EU the certificate leaves none).
    odd_budget = 0 if variant == VARIANT_EU else 2
    keyed = []
    pendant_odd = 0
    for verts, eids, _, touches in blist:
        size = len(eids)
        if touches and size > k:
            pendant_odd += 1
        keyed.append((size <= (k if touches else k + 1), -size, eids, verts))
    if pendant_odd > odd_budget:
        return None
    keyed.sort()

    # Depth i decides steps[i] = (edge, its ends u and v, the mask of its
    # ends, last): a branch's edges are decided at consecutive depths, and
    # last is the branch's size at the last edge of a branch that fails
    # when avoided, else 0.  Only a bare cycle has edges on no branch (G is
    # connected).
    steps = [
        (e, u, v, 1 << u | 1 << v, 0 if fine or e != eids[-1] else -neg)
        for fine, neg, eids, verts in keyed
        for e, u, v in zip(eids, verts, verts[1:])
    ]
    if not blist:
        for e in (e for cyc in cycle_component_edges(g) for e in cyc):
            u, v = edges[e]
            steps.append((e, u, v, 1 << u | 1 << v, 0))
    if len(steps) != m:
        raise GraphError("internal: branch partition missed edges")

    radius = k - 1
    ball = _ball_masks(g, radius)
    # state[x] is twice the undecided edges at x plus the parity of the
    # chosen ones: a vertex finalized odd reads exactly 1, and one that is
    # finalized with no chosen edge reads 0.
    state = [2 * len(eids) for eids in g.incidence]
    v3_mask = g.v3_mask
    # A list: mask shifts in the exclude step made fig4b(1) ~1.7x slower.
    high = [s > 4 for s in state]
    odd_total = 0
    budget = Budget(node_budget, time_limit)
    tick = budget.tick

    # The items of a subgraph are its edges and its degree->=3 vertices; two
    # items link when a vertex of one lies in the radius-(k-1) ball of a
    # vertex of the other.  On vertices this reads: alive holds every vertex
    # of an item, and two alive vertices link when either lies in the
    # other's ball (an edge's ends are one apart, so they link at any radius
    # >= 1).  At radius 0 an alive vertex links only along the edges not
    # excluded.  The class of a seed is then _flood(links, seed, alive), and
    # the items are mutually linkable, the proximity condition of
    # _proximity_ok, exactly when one class holds all their vertices.
    #
    # take[i] is the decision tried last at depth i (-1 none yet, 0
    # exclude, 1 include), and -1 again once the include is undone, so
    # every depth deeper than the current one reads -1.  A depth is
    # revisited only once every deeper decision is undone, so its ends read
    # as its own decision left them.  After depth i the lookahead state is
    # kept as look[i+1] = (need, alive, reach): need, the vertices of the
    # required items (chosen edges and degree->=3 vertices); alive, the
    # vertices of every item still available (chosen and undecided edges,
    # degree->=3 vertices); reach, the alive vertices linked to the
    # required items (0 while there are none).
    take = [-1] * m
    links = ball if radius else _LiveLinks(g, take, steps)
    look = [None] * m
    top = m - 1
    try:
        tick()
        if m == 0:
            return None
        # G is connected, so with every edge available all of its vertices
        # form one class, and the degree->=3 vertices always link at the root.
        alive = (1 << n) - 1
        look[0] = (v3_mask, alive, alive if v3_mask else 0)
        i = 0
        while True:
            _, u, v, em, last = steps[i]
            t = take[i]
            if t < 0:
                t = take[i] = 0
                state[u] -= 2
                state[v] -= 2
            else:
                odd_total -= (state[u] == 1) + (state[v] == 1)
                if t:
                    state[u] = (state[u] ^ 1) + 2
                    state[v] = (state[v] ^ 1) + 2
                    take[i] = -1
                    if not i:
                        break
                    i -= 1
                    continue
                state[u] ^= 1
                state[v] ^= 1
                t = take[i] = 1
            odd_total += (state[u] == 1) + (state[v] == 1)
            # A branch that fails when avoided fails at its last exclude
            # when no edge of it is chosen.
            if odd_total > odd_budget or last and not t and 1 not in take[i - last + 1:i]:
                continue
            # Proximity lookahead: the required items must still link
            # through the available ones.
            need, alive, reach = look[i]
            if t:
                need |= em
                if not reach:
                    reach = _flood(links, em, alive)
                elif not em & reach:
                    continue
            else:
                # An end of degree <= 2 leaves the items once its edges are
                # all decided and none is chosen.
                lost = near = 0
                if not (state[u] or high[u]):
                    lost, near = 1 << u, ball[u]
                if not (state[v] or high[v]):
                    lost |= 1 << v
                    near |= ball[v]
                alive ^= lost
                if em & reach:
                    # The class loses the vertices that left.  At radius
                    # >= 1 only that can split it, and it stays whole when
                    # the class vertices within the radius of them (touch)
                    # still link among themselves; one ball holding them
                    # all settles that without a growth.  At radius 0 a
                    # vertex that left was the end of its last edge, but
                    # dropping an edge between two kept vertices can
                    # split the class.  A class that may have split is
                    # regrown from a required vertex.
                    reach ^= lost
                    if not radius:
                        if not lost:
                            reach = 0
                    elif lost:
                        touch = near & reach
                        if touch & ~ball[touch.bit_length() - 1] and (
                            _flood(ball, touch & -touch, touch) != touch
                        ):
                            reach = 0
                    if not reach:
                        reach = _flood(links, need & -need, alive)
                        if need & ~reach:
                            continue
            tick()
            if i < top:
                i += 1
                look[i] = need, alive, reach
            elif need:
                chosen = frozenset([s[0] for s in compress(steps, take)])
                candidate = _candidate(g, chosen)
                if not all([v.ok for v in _verdicts(g, candidate, k, variant, blist)]):
                    raise GraphError(
                        "internal: search produced a candidate its own recheck rejects"
                    )
                return candidate
    except BudgetExhausted as exc:
        return Unknown(
            "find_witness",
            exc.spent,
            f"{variant} search at k={k} on graph with {n} vertices, {m} edges",
        )
    return None
