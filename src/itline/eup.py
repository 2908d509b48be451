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
    all_pairs_distances,
    is_connected,
    odd_vertices,
    subgraph,
    subgraph_components,
    subgraph_degrees,
    subgraph_vertices,
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


def _proximity_components_ok(
    comps: tuple[frozenset[int], ...],
    dist: list[list[float]],
    k: int,
) -> tuple[bool, str]:
    """Components must be mutually linkable through gaps of at most k-1.

    Equivalent to: for every bipartition of the components, some cross pair
    is within distance k-1; checked as connectivity of the threshold graph.
    """
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
    reached = 1
    while stack:
        i = stack.pop()
        for j in range(p):
            if linked[i][j] and not seen[j]:
                seen[j] = True
                reached += 1
                stack.append(j)
    if reached == p:
        return True, ""
    far = sorted(v for j in range(p) if not seen[j] for v in comp_lists[j])
    return False, f"components on vertices {far} are farther than {threshold} from the rest"


def _ball_masks(g: MultiGraph, radius: int) -> list[int]:
    """Bitmask of the vertices within ``radius`` of each vertex (BFS cut at that depth)."""
    nbrs = g.neighbor_sets
    balls = []
    for source in range(g.vertex_count):
        ball = 1 << source
        frontier = [source]
        for _ in range(radius):
            nxt = []
            for u in frontier:
                for w in nbrs[u]:
                    if not ball >> w & 1:
                        ball |= 1 << w
                        nxt.append(w)
            if not nxt:
                break
            frontier = nxt
        balls.append(ball)
    return balls


def _balls_link(edge_masks, v3_mask: int, ball: list[int]) -> bool:
    """Proximity of the coverage-complete subgraph, on bitmasks.

    ``edge_masks`` holds, for each edge of H, its two-bit end mask and the
    union of its ends' radius-(k-1) balls; every degree->=3 vertex the edges
    miss joins as a one-vertex item with its own ball.  One reach mask grows
    from the first item by absorbing every item whose vertices it meets, and
    H passes when the reach covers all of H's vertices.  Each item's ball
    contains its vertices, so items that share a vertex always link, and
    linking edge by edge answers the same as linking whole components:
    this agrees with :func:`_proximity_components_ok` on the same subgraph.
    """
    items = list(edge_masks)
    covered = 0
    for vm, _ in items:
        covered |= vm
    lone = v3_mask & ~covered
    while lone:
        low = lone & -lone
        items.append((low, ball[low.bit_length() - 1]))
        lone ^= low
    if not items:
        return True
    reach = items[0][1]
    before = 0
    while reach != before:
        before = reach
        for vm, bm in items:
            if vm & reach:
                reach |= bm
    return not (covered | v3_mask) & ~reach


def check_conditions(g: MultiGraph, h: SubgraphH, k: int, variant: str) -> ConditionReport:
    """Evaluate every membership condition directly from its definition."""
    variant = _norm_variant(variant)
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    h = subgraph(g, h.edge_ids, h.extra_vertices)  # revalidates against g

    degs = subgraph_degrees(g, h)
    odd = sorted(odd_vertices(g, h))
    if variant == VARIANT_EU:
        if odd:
            parity = Verdict(False, f"odd degree in H at vertex {odd[0]}")
        else:
            parity = Verdict(True)
    else:
        if len(odd) > 2:
            parity = Verdict(False, f"{len(odd)} odd vertices in H: {odd}")
        else:
            parity = Verdict(True)

    v3 = frozenset(v for v in range(g.vertex_count) if g.degree(v) >= 3)
    verts = subgraph_vertices(g, h)
    isolated = sorted(v for v, d in degs.items() if d == 0)
    bad_isolated = [v for v in isolated if v not in v3]
    missing = sorted(v3 - verts)
    if bad_isolated:
        coverage = Verdict(
            False, f"isolated vertex {bad_isolated[0]} has degree {g.degree(bad_isolated[0])} < 3 in G"
        )
    elif missing:
        coverage = Verdict(False, f"degree->=3 vertex {missing[0]} is not in H")
    else:
        coverage = Verdict(True)

    comps = subgraph_components(g, h)
    ok, detail = _proximity_components_ok(comps, all_pairs_distances(g), k)
    proximity = Verdict(ok, detail)

    avoided = Verdict(True)
    pendant = Verdict(True)
    hedges = h.edge_ids
    for b in branches(g):
        disjoint = not (set(b.edge_ids) & hedges)
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
        u, v = g.endpoints(eid)
        covered.add(u)
        covered.add(v)
    extras = frozenset(
        v for v in range(g.vertex_count) if g.degree(v) >= 3 and v not in covered
    )
    return subgraph(g, edge_ids, extras)


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
    branch as soon as it is fully avoided but too long.  Leaves only need the
    proximity check, which runs on bitmasks: each vertex's radius-(k-1) ball
    is computed once, and the chosen edges plus the uncovered degree->=3
    vertices must all be absorbed by one reach mask grown through those
    balls (:func:`_balls_link`).  A leaf that passes is built with
    :func:`canonical_candidate` and rechecked by :func:`check_conditions`
    before it is returned.  The empty subgraph is not considered a witness.
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

    def fails_if_avoided(b) -> bool:
        if b.length > k + 1:
            return True
        return variant == VARIANT_EUP and b.touches_degree_one and b.length > k

    ordered = sorted(blist, key=lambda b: (not fails_if_avoided(b), -b.length, b.edge_ids))
    order: list[int] = []
    ebranch = [-1] * m
    bsize: list[int] = []
    bbad: list[bool] = []
    for bi, b in enumerate(ordered):
        bsize.append(b.length)
        bbad.append(fails_if_avoided(b))
        for eid in b.edge_ids:
            ebranch[eid] = bi
            order.append(eid)
    for cyc in cycle_component_edges(g):
        order.extend(cyc)
    if len(order) != m:
        raise GraphError("internal: branch partition missed edges")

    ball = _ball_masks(g, k - 1)
    edge_masks = [((1 << u) | (1 << v), ball[u] | ball[v]) for u, v in edges]
    v3_mask = sum(1 << v for v in range(n) if g.degree(v) >= 3)
    undecided = [g.degree(v) for v in range(n)]
    parity = [0] * n
    inS = bytearray(m)
    bdec = [0] * len(bsize)
    binc = [0] * len(bsize)
    odd_total = 0
    budget = Budget(node_budget, time_limit)
    found: list[SubgraphH] = []

    def leaf_check() -> bool:
        if not v3_mask and not any(inS):
            return False
        if not _balls_link(compress(edge_masks, inS), v3_mask, ball):
            return False
        candidate = canonical_candidate(g, compress(range(m), inS))
        report = check_conditions(g, candidate, k, variant)
        if not report.overall:
            raise GraphError(
                "internal: search produced a candidate its own recheck rejects"
            )
        found.append(candidate)
        return True

    # Depth i decides edge order[i]: take[i] is the decision tried last
    # (-1 none yet, 0 exclude, 1 include) and added[i] the odd vertices it
    # finalized; each decision is undone before the next one is tried.
    take = [-1] * m
    added = [0] * m
    try:
        budget.tick()
        if m == 0:
            return found[0] if leaf_check() else None
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
            t += 1
            take[i] = t
            undecided[u] -= 1
            undecided[v] -= 1
            if t:
                parity[u] ^= 1
                parity[v] ^= 1
                inS[eid] = 1
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
            if viable:
                budget.tick()
                if i + 1 < m:
                    i += 1
                    take[i] = -1
                elif leaf_check():
                    return found[0]
    except BudgetExhausted as exc:
        return Unknown(
            "find_witness",
            exc.spent,
            f"{variant} search at k={k} on graph with {n} vertices, {m} edges",
        )
    return None
