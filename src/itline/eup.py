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
    _component_masks,
    _flood,
    is_connected,
    mask_members,
    subgraph,
    subgraph_degrees,
)
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
    the radius-(k-1) ball of a component already in it, so each component's
    ball is grown once, by a flood cut at radius k-1.
    """
    if len(comps) <= 1:
        return True, ""
    threshold = k - 1
    nbr = g.neighbor_masks
    rest, todo = comps[1:], comps[:1]
    while todo and rest:
        hit = _flood(nbr, todo.pop(), radius=threshold)
        todo += [c for c in rest if c & hit]
        rest = [c for c in rest if not c & hit]
    if not rest:
        return True, ""
    far = mask_members(sum(rest))
    return False, f"components on vertices {far} are farther than {threshold} from the rest"


class _LiveLinks:
    """At radius 0, ``links[x]`` is the far ends of the edges at ``x`` that
    are not excluded (``out[eid]`` unset), as a bitmask."""

    __slots__ = ("inc", "ends", "out")

    def __init__(self, g: MultiGraph, out: bytearray):
        self.inc = g.incidence
        self.ends = g.ends
        self.out = out

    def __getitem__(self, x: int) -> int:
        ends, out = self.ends, self.out
        mask = 0
        for eid in self.inc[x]:
            if not out[eid]:
                mask |= 1 << (ends[eid] ^ x)
        return mask


def check_conditions(g: MultiGraph, h: SubgraphH, k: int, variant: str) -> ConditionReport:
    """Evaluate every membership condition directly from its definition."""
    variant = _norm_variant(variant)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    h = subgraph(g, h.edge_ids, h.extra_vertices)  # revalidates against g
    return _conditions(g, h, k, variant, branches(g))


def _conditions(g: MultiGraph, h: SubgraphH, k: int, variant: str, blist) -> ConditionReport:
    """:func:`check_conditions` of a subgraph valid in ``g``, given G's branches."""
    degs = subgraph_degrees(g, h)
    odd = sorted(v for v, d in degs.items() if d % 2)
    parity = Verdict(True)
    if variant == VARIANT_EU and odd:
        parity = Verdict(False, f"odd degree in H at vertex {odd[0]}")
    elif len(odd) > 2:
        parity = Verdict(False, f"{len(odd)} odd vertices in H: {odd}")

    inc = g.incidence
    bad_isolated = sorted(v for v, d in degs.items() if d == 0 and len(inc[v]) < 3)
    missing = [v for v, ids in enumerate(inc) if len(ids) >= 3 and v not in degs]
    coverage = Verdict(True)
    if bad_isolated:
        v = bad_isolated[0]
        coverage = Verdict(False, f"isolated vertex {v} has degree {len(inc[v])} < 3 in G")
    elif missing:
        coverage = Verdict(False, f"degree->=3 vertex {missing[0]} is not in H")

    proximity = Verdict(*_proximity_ok(g, _component_masks(g, h), k))

    avoided = Verdict(True)
    pendant = Verdict(True)
    hedges = h.edge_ids
    for b in blist:
        disjoint = hedges.isdisjoint(b.edge_ids)
        if disjoint and b.length > k + 1 and avoided.ok:
            avoided = Verdict(
                False,
                f"branch {list(b.vertices)} with {b.length} edges avoids H (limit {k + 1})",
            )
        if b.touches_degree_one and b.length > k:
            if variant == VARIANT_EU or disjoint:
                if pendant.ok:
                    qualifier = "" if variant == VARIANT_EU else " and avoids H"
                    pendant = Verdict(
                        False,
                        f"pendant branch {list(b.vertices)} has {b.length} edges"
                        f"{qualifier} (limit {k})",
                    )
    return ConditionReport(variant, k, parity, coverage, proximity, avoided, pendant)


def canonical_candidate(g: MultiGraph, edge_ids) -> SubgraphH:
    """The unique coverage-satisfying subgraph with the given edge set.

    Degree->=3 vertices not touched by the edges become the subgraph's
    isolated vertices; any member of EU_k/EUP_k has exactly this shape, so
    searching over edge sets alone is complete.
    """
    edge_ids = frozenset(edge_ids)
    covered = set()
    for eid in edge_ids:
        covered.update(g.endpoints(eid))  # validates the edge id
    extras = frozenset(
        v for v, ids in enumerate(g.incidence) if len(ids) >= 3 and v not in covered
    )
    return SubgraphH(edge_ids, extras)


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
    satisfies every condition; it is built with :func:`canonical_candidate`
    and rechecked by the conditions of :func:`check_conditions`, on the
    branches walked here, before it is returned.  A sound prune cannot
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
    blist = branches(g)

    if variant == VARIANT_EU:
        # The pendant condition for EU ignores H entirely, so it is decided
        # up front for the whole graph.
        for b in blist:
            if b.touches_degree_one and b.length > k:
                return None
    odd_budget = 0 if variant == VARIANT_EU else 2

    # Branches that fail when avoided are decided first, then longer ones.
    # A pendant one fails past k edges (for EU none is left, see above).
    keyed = sorted(
        (b.length <= (k if b.touches_degree_one else k + 1), -b.length, b.edge_ids)
        for b in blist
    )
    bbad = [not fine for fine, _, _ in keyed]
    bsize = [len(eids) for _, _, eids in keyed]
    order: list[int] = []
    ebranch = [-1] * m
    for bi, (_, _, eids) in enumerate(keyed):
        for eid in eids:
            ebranch[eid] = bi
        order.extend(eids)
    if not blist:
        # Only a bare cycle has edges on no branch (G is connected).
        order.extend(e for cyc in cycle_component_edges(g) for e in cyc)
    if len(order) != m:
        raise GraphError("internal: branch partition missed edges")

    radius = k - 1
    ball = _ball_masks(g, radius)
    end_mask = [(1 << u) | (1 << v) for u, v in edges]
    undecided = [len(ids) for ids in g.incidence]
    high = [d >= 3 for d in undecided]
    v3_mask = sum(1 << v for v in range(n) if high[v])
    parity = [0] * n
    inS = bytearray(m)
    out = bytearray(m)
    bdec = [0] * len(bsize)
    binc = [0] * len(bsize)
    odd_total = 0
    budget = Budget(node_budget, time_limit)

    # The items of a subgraph are its edges and its degree->=3 vertices; two
    # items link when a vertex of one lies in the radius-(k-1) ball of a
    # vertex of the other.  On vertices this reads: alive holds every vertex
    # of an item, and two alive vertices link when either lies in the
    # other's ball (an edge's ends are one apart, so they link at any radius
    # >= 1).  At radius 0 an alive vertex links only along the edges not
    # excluded.  The class of a seed is then _flood(links, seed, alive), and
    # the items are mutually linkable, the proximity condition of
    # _proximity_ok, exactly when one class holds all their vertices.
    links = ball if radius else _LiveLinks(g, out)

    # Depth i decides edge order[i]: take[i] is the decision tried last
    # (-1 none yet, 0 exclude, 1 include) and added[i] the odd vertices it
    # finalized; each decision is undone before the next one is tried.
    # After depth i the lookahead state is kept at index i+1: need_at, the
    # vertices of the required items (chosen edges and degree->=3 vertices);
    # alive_at, the vertices of every item still available (chosen and
    # undecided edges, degree->=3 vertices); reach_at, the alive vertices
    # linked to the required items (0 while there are none).
    take = [-1] * m
    added = [0] * m
    need_at = [0] * (m + 1)
    alive_at = [0] * (m + 1)
    reach_at = [0] * (m + 1)
    try:
        budget.tick()
        if m == 0:
            return None
        # G is connected, so with every edge available all of its vertices
        # form one class, and the degree->=3 vertices always link at the root.
        need_at[0] = v3_mask
        alive_at[0] = (1 << n) - 1
        if v3_mask:
            reach_at[0] = alive_at[0]
        i = 0
        while i >= 0:
            eid = order[i]
            u, v = edges[eid]
            bi = ebranch[eid]
            t = take[i]
            if t >= 0:
                if bi >= 0:
                    bdec[bi] -= 1
                    binc[bi] -= t
                odd_total -= added[i]
                if t:
                    parity[u] ^= 1
                    parity[v] ^= 1
                    inS[eid] = 0
                undecided[u] += 1
                undecided[v] += 1
                if t:
                    i -= 1
                    continue
                out[eid] = 0
            t += 1
            take[i] = t
            undecided[u] -= 1
            undecided[v] -= 1
            if t:
                parity[u] ^= 1
                parity[v] ^= 1
                inS[eid] = 1
            else:
                out[eid] = 1
            a = 0
            if undecided[u] == 0 and parity[u]:
                a += 1
            if undecided[v] == 0 and parity[v]:
                a += 1
            added[i] = a
            odd_total += a
            viable = odd_total <= odd_budget
            if bi >= 0:
                bdec[bi] += 1
                binc[bi] += t
                if viable and bdec[bi] == bsize[bi] and binc[bi] == 0 and bbad[bi]:
                    viable = False
            if not viable:
                continue
            # Proximity lookahead: the required items must still link
            # through the available ones.
            need, alive, reach = need_at[i], alive_at[i], reach_at[i]
            em = end_mask[eid]
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
                if not (undecided[u] or parity[u] or high[u]):
                    lost, near = 1 << u, ball[u]
                if not (undecided[v] or parity[v] or high[v]):
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
            budget.tick()
            if i + 1 < m:
                i += 1
                take[i] = -1
                need_at[i], alive_at[i], reach_at[i] = need, alive, reach
            elif need:
                candidate = canonical_candidate(g, compress(range(m), inS))
                if not _conditions(g, candidate, k, variant, blist).overall:
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
