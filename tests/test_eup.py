"""Condition checking and witness search for the subgraph families."""

import hashlib
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itline.budget import Budget, Unknown
from itline.eup import (
    VARIANT_EU,
    VARIANT_EUP,
    _ball_masks,
    canonical_candidate,
    check_conditions,
    find_witness,
    witness_to_json,
)
from itline.families import cycle, fig1, fig2, fig3, fig4b, path, star
from itline.graphcore import (
    DisconnectedGraphError,
    InputError,
    MultiGraph,
    _flood,
    subgraph,
)

from .conftest import connected_multigraphs, doubled_multigraphs, long_branch_graphs, spiders
from .oracles import (
    brute_subgraph_distance,
    brute_witness_exists,
    floyd_warshall,
    proximity_by_distances,
    subgraph_components_by_edges,
)


def _hexagon(g):
    return canonical_candidate(
        g, [eid for eid, (u, v) in enumerate(g.edges) if u < 6 and v < 6]
    )


def test_fig2_hexagon_in_eu_at_k():
    for k in (2, 3):
        g = fig2(k)
        report = check_conditions(g, _hexagon(g), k, VARIANT_EU)
        assert report.overall, report.to_dict()


def test_fig2_hexagon_fails_pendant_condition_below_k():
    for k in (2, 3):
        g = fig2(k)
        report = check_conditions(g, _hexagon(g), k - 1, VARIANT_EUP)
        assert not report.overall
        assert not report.pendant_branches.ok
        assert report.parity.ok


def test_fig1_bottom_path_with_apex_is_eup2_member():
    g = fig1()
    h = subgraph(g, range(10), {11})
    report = check_conditions(g, h, 2, VARIANT_EUP)
    assert report.overall, report.to_dict()
    # The two components are the path and the apex, one step apart.
    assert len(subgraph_components_by_edges(g, h.edge_ids, h.extra_vertices)) == 2
    assert brute_subgraph_distance(g, {11}, set(range(11))) == 1


def test_fig1_bottom_path_with_apex_fails_at_k1():
    g = fig1()
    h = subgraph(g, range(10), {11})
    report = check_conditions(g, h, 1, VARIANT_EUP)
    assert not report.proximity.ok


def test_parity_verdicts():
    g = path(5)
    h = subgraph(g, {0, 2})  # two disjoint edges: four odd vertices
    assert not check_conditions(g, h, 3, VARIANT_EUP).parity.ok
    assert not check_conditions(g, h, 3, VARIANT_EU).parity.ok
    single = subgraph(g, {1})
    assert check_conditions(g, single, 3, VARIANT_EUP).parity.ok
    assert not check_conditions(g, single, 3, VARIANT_EU).parity.ok


def test_coverage_verdicts():
    g = star(3)
    # Leaving the center out of H misses a degree->=3 vertex.
    h = subgraph(g, ())
    report = check_conditions(g, h, 2, VARIANT_EUP)
    assert not report.coverage.ok
    # A degree-1 isolated vertex is not allowed either.
    h2 = subgraph(path(3), (), {2})
    assert not check_conditions(path(3), h2, 2, VARIANT_EUP).coverage.ok


def test_eu_pendant_condition_ignores_h():
    # EU checks pendant branches unconditionally; EUP exempts branches H meets.
    g = fig2(3)
    h = canonical_candidate(g, range(g.edge_count))
    assert not check_conditions(g, h, 2, VARIANT_EU).pendant_branches.ok
    assert check_conditions(g, h, 2, VARIANT_EUP).pendant_branches.ok


def test_check_conditions_validates_subgraph():
    g = path(3)
    with pytest.raises(InputError):
        check_conditions(g, subgraph(path(5), {3}), 2, VARIANT_EUP)


def test_invalid_variant_and_k():
    g = path(3)
    with pytest.raises(InputError):
        check_conditions(g, subgraph(g, {0}), 2, "both")
    with pytest.raises(InputError):
        find_witness(g, 0, VARIANT_EUP)


# --- witness search ---------------------------------------------------------


def test_fig1_has_no_level1_witness_but_level2():
    g = fig1()
    assert find_witness(g, 1, VARIANT_EUP) is None
    w = find_witness(g, 2, VARIANT_EUP)
    assert w is not None
    assert check_conditions(g, w, 2, VARIANT_EUP).overall


def test_search_walks_the_branches_once(monkeypatch):
    # The bare-cycle walk is left out when G has branches, and a found
    # witness is rechecked against the branches the search walked, so the
    # search and its audit share one walk.
    import itline.structure

    walked = []
    walk = itline.structure._branch_walk
    monkeypatch.setattr(itline.structure, "_branch_walk", lambda g: walked.append(g) or walk(g))
    g = fig1()
    assert find_witness(g, 1, VARIANT_EUP) is None
    assert len(walked) == 1
    assert find_witness(g, 2, VARIANT_EUP) is not None
    assert len(walked) == 2


def test_cycle_eu_witness_is_the_cycle_itself():
    g = cycle(6)
    w = find_witness(g, 1, VARIANT_EU)
    assert w.edge_ids == frozenset(range(6))
    assert not w.extra_vertices


def test_star_witnesses():
    g = star(4)
    w = find_witness(g, 2, VARIANT_EUP)
    assert w is not None


def test_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        find_witness(MultiGraph(3, ((0, 1),)), 2, VARIANT_EUP)


def test_budget_exhaustion_returns_unknown():
    result = find_witness(fig4b(1), 2, VARIANT_EUP, node_budget=3)
    assert isinstance(result, Unknown)
    assert result.operation == "find_witness"


def test_pendant_parity_settles_eup_before_any_node():
    # fig2(3) has three pendant arms of 3 > 2 edges.  Each must meet H, and
    # the H-edge nearest its leaf leaves an odd vertex of H in it, so EUP_2
    # is empty: one more odd vertex than the parity budget allows.
    assert find_witness(fig2(3), 2, VARIANT_EUP, node_budget=1) is None
    # Two such arms fit the budget; fig3's pair of long arms is searched.
    assert isinstance(find_witness(fig3(1, 6), 2, VARIANT_EUP, node_budget=1), Unknown)


def test_exhaustive_search_tree_is_pinned():
    # Neither graph has an EUP_2 witness.  With the proximity lookahead,
    # proving it for fig4b(1) expands 8,333 nodes in the generator's edge
    # order (365,179 without).  On fig3(1,6), excluded stretches of the long
    # pendant branches cut their far ends off the required items, so its
    # 308-node tree also depends on the test that an include meets them.
    # fig4b(2) has no EUP_3 witness, the proof behind hp(fig4b(2)) = 4, and
    # the one exhaustive tree here at radius 2.
    for g, k, nodes in ((fig4b(1), 2, 8_333), (fig3(1, 6), 2, 308), (fig4b(2), 3, 14_695)):
        starved = find_witness(g, k, VARIANT_EUP, node_budget=nodes - 1)
        assert isinstance(starved, Unknown) and starved.budget_spent == nodes
        assert find_witness(g, k, VARIANT_EUP, node_budget=nodes) is None


def _seeded_multigraphs() -> list[MultiGraph]:
    """300 connected multigraphs of 2-8 vertices in shuffled edge order: a
    random spanning tree, which mostly extends a path so that branches are
    long, with up to four extra edges, some of them parallel to an edge
    already drawn; every tenth graph is a bare cycle."""
    rng = random.Random(2029)
    graphs = []
    for i in range(300):
        n = rng.randint(2, 8)
        if i % 10 == 0:
            edges = [(v, (v + 1) % n) for v in range(n)]
        else:
            edges = [(v - 1 if rng.random() < 0.6 else rng.randrange(v), v) for v in range(1, n)]
            for _ in range(rng.randint(0, 4)):
                pair = rng.choice(edges) if rng.random() < 0.3 else rng.sample(range(n), 2)
                edges.append(tuple(pair))
        rng.shuffle(edges)
        graphs.append(MultiGraph(n, tuple(edges)))
    return graphs


# Summed node counts of find_witness over _seeded_multigraphs(), and the
# sha256 of its first witnesses there in the same order as the keys.
SEEDED_TREE_NODES = {
    (1, VARIANT_EU): 2_399, (1, VARIANT_EUP): 2_322,
    (2, VARIANT_EU): 1_973, (2, VARIANT_EUP): 2_195,
    (3, VARIANT_EU): 2_062, (3, VARIANT_EUP): 2_152,
}
SEEDED_WITNESS_DIGEST = "8b3cf7ac478ff80b8f637fc7d60e87744e1eb71cca7fc9379f5aaadb3c03c392"


def test_seeded_search_trees_are_pinned(monkeypatch):
    # Every search tree at k = 1, 2, 3 under both variants, on parallel
    # edges and bare cycles too; k = 1 is the radius-0 lookahead.  In each
    # (k, variant) the largest tree is also cut one node short, which must
    # give an Unknown that spent its full count.
    spent = [0]
    tick = Budget.tick

    def counted(budget, n=1):
        spent[0] += n
        return tick(budget, n)

    monkeypatch.setattr(Budget, "tick", counted)
    graphs = _seeded_multigraphs()
    totals, entries = {}, []
    for key in SEEDED_TREE_NODES:
        total, largest, hardest = 0, 0, None
        for g in graphs:
            spent[0] = 0
            w = find_witness(g, *key)
            assert not isinstance(w, Unknown)
            entries.append(None if w is None else [sorted(w.edge_ids), sorted(w.extra_vertices)])
            total += spent[0]
            if spent[0] > largest:
                largest, hardest = spent[0], g
        totals[key] = total
        starved = find_witness(hardest, *key, node_budget=largest - 1)
        assert isinstance(starved, Unknown) and starved.budget_spent == largest
    assert totals == SEEDED_TREE_NODES
    blob = json.dumps(entries, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SEEDED_WITNESS_DIGEST


# sha256 of the first witnesses (sorted edge ids and isolated vertices, or
# None) on the graphs below at k = 1, 2, 3 for eu and eup, as the search found
# them before it had the proximity lookahead.  A sound prune removes only
# subtrees without a witness, so the first witness in search order stays.
FIRST_WITNESS_DIGEST = "31bbcce0d9bf6244b41833b0967521b202e4756af0c54c1fd8ae87a9a35697a0"


def test_first_witnesses_match_pinned_digest(corpus6):
    graphs = list(corpus6) + [
        fig1(), fig2(1), fig2(2), fig2(3), fig3(1, 6), fig3(2, 7), fig4b(1),
    ]
    entries = []
    for g in graphs:
        for k in (1, 2, 3):
            for variant in (VARIANT_EU, VARIANT_EUP):
                w = find_witness(g, k, variant)
                assert not isinstance(w, Unknown)
                entries.append(
                    None if w is None else [sorted(w.edge_ids), sorted(w.extra_vertices)]
                )
    assert len(entries) == 900 and entries.count(None) == 61
    blob = json.dumps(entries, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == FIRST_WITNESS_DIGEST


@settings(deadline=None, max_examples=60)
@given(connected_multigraphs(max_vertices=7, max_extra_edges=5), st.data())
def test_ball_mask_proximity_matches_distance_table(g, data):
    # The reach of the lookahead, with exactly H's items available, against
    # the component-and-distance-table reading of proximity.
    chosen = data.draw(st.integers(0, (1 << g.edge_count) - 1))
    edges = [g.edges[e] for e in range(g.edge_count) if chosen >> e & 1]
    cand = canonical_candidate(g, [e for e in range(g.edge_count) if chosen >> e & 1])
    comps = subgraph_components_by_edges(g, cand.edge_ids, cand.extra_vertices)
    dist = floyd_warshall(g)
    need = sum(1 << v for v in range(g.vertex_count) if g.degree(v) >= 3)
    for u, v in edges:
        need |= (1 << u) | (1 << v)

    def hops(x):
        mask = 0
        for u, v in edges:
            if x in (u, v):
                mask |= 1 << (u ^ v ^ x)
        return mask

    n = g.vertex_count
    for k in (1, 2, 3, 4):
        links = _ball_masks(g, k - 1) if k > 1 else [hops(x) for x in range(n)]
        if k > 1:  # each ball is exactly the vertices within k-1
            assert links == [sum(1 << w for w in range(n) if dist[v][w] < k) for v in range(n)]
        want, _ = proximity_by_distances(comps, dist, k)
        got = not need or _flood(links, need & -need, need) == need
        assert got == want


@settings(deadline=None, max_examples=80)
@given(doubled_multigraphs(max_vertices=8, max_edges=9), st.data())
def test_proximity_matches_distance_table_route(g, data):
    # Verdict and detail of the depth-cut BFS against the all-pairs reading,
    # on multigraphs with parallel edges, connected or not.
    chosen = data.draw(st.integers(0, (1 << g.edge_count) - 1))
    h = canonical_candidate(g, [e for e in range(g.edge_count) if chosen >> e & 1])
    comps = subgraph_components_by_edges(g, h.edge_ids, h.extra_vertices)
    dist = floyd_warshall(g)
    for k in (1, 2, 3, 4):
        got = check_conditions(g, h, k, VARIANT_EUP).proximity
        assert (got.ok, got.detail) == proximity_by_distances(comps, dist, k)


def test_check_conditions_on_long_cycle_needs_no_distance_table():
    # An all-pairs distance table of cycle(1500) alone takes ~0.9 s.
    g = cycle(1500)
    for edge_ids in (range(1500), range(0, 1500, 2)):
        start = time.monotonic()
        report = check_conditions(g, subgraph(g, edge_ids), 2, VARIANT_EUP)
        assert time.monotonic() - start < 0.5
        assert report.proximity.ok
    assert report.overall is False and not report.parity.ok


def test_witness_json_shape():
    g = fig1()
    w = find_witness(g, 2, VARIANT_EUP)
    report = check_conditions(g, w, 2, VARIANT_EUP)
    payload = witness_to_json(w, report)
    assert set(payload) == {"edges", "isolated_vertices", "report"}
    assert payload["report"]["overall"] is True
    assert set(payload["report"]["conditions"]) == {
        "parity", "coverage", "proximity", "avoided_branches", "pendant_branches",
    }


@settings(deadline=None, max_examples=40)
@given(
    st.one_of(
        connected_multigraphs(max_vertices=5, max_extra_edges=3),
        long_branch_graphs(max_edges=10),
        spiders(max_edges=9),
    )
)
def test_search_matches_raw_enumeration(g):
    # Dual route: the pruned search against unstructured subset enumeration.
    # Long branches are where the proximity lookahead cuts subtrees, and
    # spiders' three long legs where the pendant parity certificate answers.
    for k in (1, 2, 3):
        for variant in (VARIANT_EU, VARIANT_EUP):
            found = find_witness(g, k, variant)
            assert not isinstance(found, Unknown)
            assert (found is not None) == brute_witness_exists(g, k, variant)


@settings(deadline=None, max_examples=40)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_found_witnesses_pass_their_own_audit(g):
    for variant in (VARIANT_EU, VARIANT_EUP):
        w = find_witness(g, 2, variant)
        if w is None or isinstance(w, Unknown):
            continue
        assert check_conditions(g, w, 2, variant).overall


@settings(deadline=None, max_examples=40)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_eu_witness_is_eup_witness(g):
    w = find_witness(g, 2, VARIANT_EU)
    if w is None or isinstance(w, Unknown):
        return
    assert check_conditions(g, w, 2, VARIANT_EUP).overall


@settings(deadline=None, max_examples=40)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_witness_monotone_in_k(g):
    for variant in (VARIANT_EU, VARIANT_EUP):
        w = find_witness(g, 2, variant)
        if w is None or isinstance(w, Unknown):
            continue
        assert check_conditions(g, w, 3, variant).overall


def test_proximity_equals_bipartition_reading():
    # The threshold-connectivity test must match the "every split has a close
    # cross pair" reading verbatim.
    from itertools import combinations

    g = fig1()
    h = subgraph(g, (0, 1), {5, 8, 11})
    comps = subgraph_components_by_edges(g, h.edge_ids, h.extra_vertices)
    dist = floyd_warshall(g)
    for k in (1, 2, 3, 4):
        ok, _ = proximity_by_distances(comps, dist, k)
        p = len(comps)
        brute = True
        for r in range(1, p):
            for side in combinations(range(p), r):
                cross = min(
                    dist[u][v]
                    for i in side
                    for j in range(p)
                    if j not in side
                    for u in comps[i]
                    for v in comps[j]
                )
                if cross > k - 1:
                    brute = False
        assert ok == brute
