"""Degree classes, branches, pendent cycles, maximum and dominating trails."""

import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from functools import partial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import itline
from itline import graphcore
from itline.budget import Unknown
from itline.families import complete, cycle, fig1, fig2, fig3, fig4b, path, star, two_cycle
from itline.graphcore import (
    DisconnectedGraphError,
    MultiGraph,
    Trail,
    diameter,
    mask_members,
    validate_trail,
)
from itline.indices import compute_bounds, hamiltonian_index, hamiltonian_path_index
from itline.structure import (
    MaxTrailResult,
    branches,
    bridge_tree_rules_out_trail,
    cycle_component_edges,
    find_dominating_trail,
    max_trail,
)

from .conftest import (
    attached_cycle_graphs,
    brooms,
    connected_multigraphs,
    doubled_multigraphs,
    long_branch_graphs,
    multigraphs,
    relabeled_copy,
    spiders,
)
from .oracles import (
    brute_branches,
    brute_bridge_tree,
    brute_has_dominating_trail,
    brute_max_trail_stats,
    brute_pendent_cycles,
    dominates,
    two_pendant_cycles_graph,
)


def _of_degree(g, d):
    return [v for v in range(g.vertex_count) if g.degree(v) == d]


def _pendent_cycles(g):
    """The closed branches: the cycles that meet the degree->=3 vertices once."""
    return [b for b in branches(g) if b.is_closed]


def test_degree_classes_fig1():
    g = fig1()
    assert _of_degree(g, 3) == [2, 5, 8, 11]
    assert mask_members(g.v3_mask) == [2, 5, 8, 11]
    assert _of_degree(g, 1) == [0, 10]


def test_degree_classes_cycle_has_no_w():
    # W, the vertices of degree != 2, is empty on a cycle.
    assert _of_degree(cycle(6), 2) == list(range(6))


def test_degree_classes_star():
    g = star(3)
    assert _of_degree(g, 1) == [1, 2, 3]
    assert _of_degree(g, 3) == [0]


def test_branches_fig1():
    bs = branches(fig1())
    assert len(bs) == 7
    assert sum(b.touches_degree_one for b in bs) == 2
    vertex_paths = {b.vertices for b in bs}
    for expected in ((0, 1, 2), (2, 3, 4, 5), (5, 6, 7, 8), (8, 9, 10)):
        assert expected in vertex_paths


def test_branches_path_is_single_b1_branch():
    bs = branches(path(5))
    assert len(bs) == 1
    assert bs[0].length == 4
    assert bs[0].touches_degree_one


def test_branches_cycle_empty():
    assert branches(cycle(6)) == ()
    assert cycle_component_edges(cycle(6)) == (tuple(range(6)),)


def test_closed_branch_for_pendant_cycle():
    g = two_pendant_cycles_graph()
    closed = [b for b in branches(g) if b.is_closed]
    assert len(closed) == 2
    for b in closed:
        assert b.vertices[0] == b.vertices[-1]
        assert not b.touches_degree_one


@given(multigraphs(max_vertices=6, max_edges=9))
def test_branches_match_definition_oracle(g):
    assert {frozenset(b.edge_ids) for b in branches(g)} == brute_branches(g)


@given(multigraphs(max_vertices=6, max_edges=9))
def test_branch_partition_and_degree_invariants(g):
    bs = branches(g)
    seen: set[int] = set()
    for b in bs:
        assert not (seen & set(b.edge_ids))
        seen.update(b.edge_ids)
        for v in b.vertices[1:-1]:
            assert g.degree(v) == 2
        if not b.is_closed:
            assert g.degree(b.vertices[0]) != 2
            assert g.degree(b.vertices[-1]) != 2
            assert b.vertices[0] < b.vertices[-1]
    cycle_edges = {e for comp in cycle_component_edges(g) for e in comp}
    assert seen | cycle_edges == set(range(g.edge_count))
    assert not seen & cycle_edges


def test_pendent_cycles_two():
    assert len(_pendent_cycles(two_pendant_cycles_graph())) == 2


def test_pendent_cycles_standalone_cycle_none():
    assert _pendent_cycles(cycle(5)) == []


def test_pendent_cycles_fig2_none():
    # The hexagon meets three degree-3 vertices, so it is not pendent.
    assert _pendent_cycles(fig2(1)) == []


@settings(deadline=None)
@given(attached_cycle_graphs(max_edges=12))
def test_pendent_cycles_match_subset_enumeration(g):
    # Dual route for reading pendent cycles off the closed branches.
    found = _pendent_cycles(g)
    assert sorted(tuple(sorted(b.edge_ids)) for b in found) == brute_pendent_cycles(g)
    for b in found:
        validate_trail(g, Trail(b.vertices, b.edge_ids, True))
        assert g.degree(b.vertices[0]) >= 3


# --- maximum trails ---------------------------------------------------------


def test_max_trail_published_family_statistics():
    mt = max_trail(fig3(1, 6))
    assert mt.mt_star == 13
    assert mt.d3_star == 4


def test_max_trail_path():
    mt = max_trail(path(6))
    assert mt.mt_star == 6 and mt.d3_star == 0


def test_max_trail_eulerian_covers_everything():
    for g in (cycle(5), MultiGraph(4, ((0, 1), (1, 2), (2, 0), (0, 3), (3, 1), (0, 1)))):
        mt = max_trail(g)
        assert mt.mt_star == g.vertex_count
        assert mt.d3_star == 0


def test_max_trail_single_vertex():
    mt = max_trail(MultiGraph(1, ()))
    assert mt.mt_star == 1 and mt.trail.is_trivial


def test_max_trail_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        max_trail(MultiGraph(3, ((0, 1),)))


def test_max_trail_budget_exhaustion_is_unknown():
    result = max_trail(fig3(1, 6), node_budget=10)
    assert isinstance(result, Unknown)
    assert result.operation == "max_trail"


# Bridges and long odd-ended branches are where the odd-start and bridge
# prunes cut the trail walks.
BRANCHY_GRAPHS = st.one_of(
    connected_multigraphs(max_vertices=5, max_extra_edges=3),
    long_branch_graphs(max_edges=10),
)
# Spiders and brooms under a random vertex permutation put their many leaves
# at arbitrary ids, so the start order is not the generators' numbering.
LEAFY_GRAPHS = st.builds(
    relabeled_copy, st.one_of(spiders(), brooms()), st.randoms(use_true_random=False)
)
# Two triangles hung by bridges from a vertex with a leaf: the only maximum
# and dominating trails run from triangle to triangle, so a walk that started
# at the leaf alone would miss them.
LEAF_OFF_THE_OPTIMUM = MultiGraph(
    8, ((0, 1), (0, 2), (0, 5), (2, 3), (3, 4), (4, 2), (5, 6), (6, 7), (7, 5))
)


@settings(deadline=None, max_examples=60)
@given(st.one_of(BRANCHY_GRAPHS, LEAFY_GRAPHS))
@example(LEAF_OFF_THE_OPTIMUM)
def test_max_trail_matches_unmemoized_enumeration(g):
    # Dual route for the memoized pruning search.
    mt = max_trail(g)
    assert (mt.mt_star, mt.d3_star) == brute_max_trail_stats(g)


@settings(deadline=None, max_examples=60)
@given(st.one_of(BRANCHY_GRAPHS, LEAFY_GRAPHS))
@example(LEAF_OFF_THE_OPTIMUM)
def test_dominating_trail_existence_matches_enumeration(g):
    for closed in (False, True):
        found = find_dominating_trail(g, closed=closed)
        assert not isinstance(found, Unknown)
        assert (found is not None) == brute_has_dominating_trail(g, closed)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_max_trail_witness_consistency(g):
    mt = max_trail(g)
    validate_trail(g, mt.trail)
    visited = set(mt.trail.vertices)
    v3 = {v for v in range(g.vertex_count) if g.degree(v) >= 3}
    assert mt.mt_star == len(visited)
    assert mt.d3_star == len(v3 - visited)


def test_trail_search_trees_are_pinned():
    # Nodes expanded.  On fig3(1,6), starting open walks at odd vertices only
    # takes max_trail from 398 to 255 nodes and the open dominating search
    # from 1,458 to 654, and skipping bridges takes the closed search from
    # 523 to 70.  The bridge-tree bound and stop take max_trail on fig3(1,6)
    # from 255 to 13 nodes, on fig3(2,7) from 282 to 15 and on fig4b(1)
    # from 948 to 51.  A lost prune grows a tree past its pin.
    open_search = partial(find_dominating_trail, closed=False)
    closed_search = partial(find_dominating_trail, closed=True)
    cases = (
        (fig3(1, 6), max_trail, 13),
        (fig3(2, 7), max_trail, 15),
        (fig3(1, 6), open_search, 654),
        (fig3(1, 6), closed_search, 70),
        (fig4b(1), max_trail, 51),
    )
    for g, run, nodes in cases:
        starved = run(g, node_budget=nodes - 1)
        assert isinstance(starved, Unknown) and starved.budget_spent == nodes
        assert not isinstance(run(g, node_budget=nodes), Unknown)


def test_max_trail_on_a_long_caterpillar():
    # A 500-vertex spine with a leaf at every spine vertex.  The reach bound
    # alone spends 200,000 nodes (~29 s) here without an answer.  With the
    # bridge-tree bound, the walk from the first leaf, 500, runs along the
    # spine to the leaf 999, the tree's best path, in 502 nodes; from the
    # smallest odd id, the spine vertex 1, it would take 1,999.
    g = MultiGraph(1000, path(500).edges + tuple((i, 500 + i) for i in range(500)))
    mt = max_trail(g, node_budget=502)
    assert (mt.mt_star, mt.d3_star) == (502, 0)
    starved = max_trail(g, node_budget=501)
    assert isinstance(starved, Unknown) and starved.budget_spent == 502


def _reversed_copy(g):
    n = g.vertex_count
    return MultiGraph(n, tuple((n - 1 - u, n - 1 - v) for u, v in g.edges))


def test_max_trail_node_count_does_not_depend_on_labels():
    # Open walks start at the leaves first, so the first descent on fig3
    # runs from a leaf whatever the numbering.  Starting at the smallest odd
    # id instead, fig3(1,6) would take 13 to 53 nodes over 200 relabelings
    # and 43 with its labels reversed.
    rng = random.Random(20)
    for s, t, nodes in ((1, 6, 13), (2, 7, 15), (3, 8, 17)):
        g = fig3(s, t)
        for h in [g, _reversed_copy(g)] + [relabeled_copy(g, rng) for _ in range(8)]:
            mt = max_trail(h, node_budget=nodes)
            assert isinstance(mt, MaxTrailResult)
            assert (mt.mt_star, mt.d3_star) == (2 * t + 1, 4)
            starved = max_trail(h, node_budget=nodes - 1)
            assert isinstance(starved, Unknown) and starved.budget_spent == nodes


def test_max_trail_stops_at_full_cover():
    # A trail through all n vertices also covers every degree->=3 vertex, so
    # max_trail stops at the first one: on K5 after 7 nodes (17 without the
    # stop).  fig3 and fig4b above never reach full cover.
    g = complete(5)
    starved = max_trail(g, node_budget=6)
    assert isinstance(starved, Unknown) and starved.budget_spent == 7
    mt = max_trail(g, node_budget=7)
    assert (mt.mt_star, mt.d3_star, mt.trail.edge_ids) == (5, 0, (0, 4, 1, 2, 5, 6))


# sha256 of [mt_star, d3_star, trail vertices, trail edge ids] from max_trail
# on the graphs below.  The [mt_star, d3_star] pairs are those the search gave
# with the reach bound alone; the witnesses follow the search order.
MAX_TRAIL_DIGEST = "7765da14f088a48be92bce4de4104367a4a62b9d55db2f1a15597429bfda396e"


def test_max_trail_witnesses_match_pinned_digest(corpus6):
    figures = [fig1(), fig2(1), fig2(2), fig2(3), fig3(1, 6), fig3(2, 7), fig3(3, 8),
               fig4b(1), fig4b(2)]
    rng = random.Random(15)
    graphs = corpus6 + figures + [relabeled_copy(g, rng) for g in figures for _ in range(3)]
    entries = []
    for g in graphs:
        mt = max_trail(g)
        entries.append([mt.mt_star, mt.d3_star, list(mt.trail.vertices), list(mt.trail.edge_ids)])
    assert len(entries) == 179 and sum(e[0] for e in entries) == 1220
    blob = json.dumps(entries, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == MAX_TRAIL_DIGEST


def _tree_bound(g):
    """The bridge tree's best path value, as (vertices, degree->=3 vertices)."""
    return divmod(g.bridge_tree_paths.best, g.vertex_count + 1)


def _check_bridge_tree_paths(g):
    # The one-pass tree against edge deletion and brute-force tree paths: the
    # same pieces, the same best value and each piece's first two exits.
    cut, pieces, exits, best = brute_bridge_tree(g)
    tree_exits, got = g.bridge_tree_paths
    assert got == best
    tree_pieces, piece_of, *_ = g.bridge_tree
    assert len(tree_exits) == len(tree_pieces)
    for v in range(g.vertex_count):
        p = piece_of[v]
        piece = frozenset(x for x in range(g.vertex_count) if tree_pieces[p] >> x & 1)
        assert v in piece and piece in pieces
        two = (tree_exits[p][:2], tree_exits[p][2:])
        assert [out for out in two if out[0]] == exits[piece][:2]


@settings(deadline=None, max_examples=80)
@given(
    st.one_of(
        doubled_multigraphs(base=connected_multigraphs(max_vertices=8, max_extra_edges=3)),
        connected_multigraphs(max_vertices=10, max_extra_edges=0),
        attached_cycle_graphs(),
        brooms(),
    )
)
def test_bridge_tree_paths_match_brute_force(g):
    _check_bridge_tree_paths(g)


def test_bridge_tree_paths_on_figures_and_corpus(corpus6):
    figures = [fig1(), fig2(1), fig2(2), fig2(3), fig3(1, 6), fig3(2, 7), fig3(3, 8),
               fig4b(1), fig4b(2)]
    rng = random.Random(17)
    for g in corpus6 + figures + [relabeled_copy(g, rng) for g in figures]:
        _check_bridge_tree_paths(g)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=12, max_extra_edges=0))
def test_bridge_tree_bound_on_trees_is_the_longest_path(g):
    # Every piece of a tree is one vertex, so its best tree path is its
    # longest path, which is also its maximum trail.
    mt = max_trail(g)
    v3 = sum(g.degree(v) >= 3 for v in range(g.vertex_count))
    assert _tree_bound(g) == (mt.mt_star, v3 - mt.d3_star)
    assert mt.mt_star == diameter(g) + 1


@settings(deadline=None, max_examples=60)
@given(st.one_of(BRANCHY_GRAPHS, spiders(), brooms()))
def test_bridge_tree_bound_is_at_least_the_maximum_trail(g):
    mt_star, d3_star = brute_max_trail_stats(g)
    v3 = sum(g.degree(v) >= 3 for v in range(g.vertex_count))
    assert _tree_bound(g) >= (mt_star, v3 - d3_star)


def _count_tree_builds(monkeypatch):
    """Lists that grow by one graph at each lowpoint DFS and at each valuing
    of the bridge tree's paths: the two fills of the graph's cache."""
    dfs, valued = [], []
    build, value = graphcore._bridge_tree, graphcore._bridge_tree_paths
    monkeypatch.setattr(graphcore, "_bridge_tree", lambda g: dfs.append(g) or build(g))
    monkeypatch.setattr(graphcore, "_bridge_tree_paths", lambda g: valued.append(g) or value(g))
    return dfs, valued


def test_max_trail_reads_the_bridge_tree_before_the_walk(monkeypatch):
    # Every max_trail reads the tree once before its walk, and values its
    # paths only when the graph has a bridge: K5 (still 7 nodes, see above)
    # and cycle(1500) are bridgeless, path(1500) is all bridges.
    dfs, valued = _count_tree_builds(monkeypatch)
    assert max_trail(complete(5)).mt_star == 5
    assert max_trail(cycle(1500)).mt_star == 1500
    assert len(dfs) == 2 and not valued
    assert max_trail(path(1500)).mt_star == 1500
    assert len(dfs) == 3 and len(valued) == 1


def test_one_bridge_tree_per_graph(monkeypatch):
    # On one graph object, the level-1 certificates, the closed dominating
    # search, the bounds and two more maximum trails run one lowpoint DFS and
    # value the tree's paths once; each used to run its own.  Every max_trail
    # reads the cached tree before its walk, so a warm graph spends what a
    # fresh one does: 13 nodes on fig3(1,6), as pinned above.
    dfs, valued = _count_tree_builds(monkeypatch)
    g = fig3(1, 6)
    assert (hamiltonian_path_index(g).value, hamiltonian_index(g).value) == (3, 6)
    assert compute_bounds(g).mt_star == 13
    first, again = (max_trail(g, node_budget=13) for _ in range(2))
    assert isinstance(first, MaxTrailResult) and first == again
    for starved in (max_trail(g, node_budget=12) for _ in range(2)):
        assert isinstance(starved, Unknown) and starved.budget_spent == 13
    assert len(dfs) == len(valued) == 1
    tree, paths = g.bridge_tree, g.bridge_tree_paths
    assert all(type(part) is tuple for part in (*tree[:3], paths.exits, *paths.exits))


def test_long_inputs_get_an_answer():
    # Iterative walks throughout: no call may raise, RecursionError included.
    caterpillar = MultiGraph(2000, path(1000).edges + tuple((i, 1000 + i) for i in range(1000)))
    chained = []  # 1,000 triangles, each joined to the next by a bridge
    for a in range(0, 3000, 3):
        chained += [(a, a + 1), (a + 1, a + 2), (a + 2, a)] + [(a - 1, a)] * (a > 0)
    cases = (
        (path(5000), 4999),
        (cycle(5000), 0),
        (caterpillar, 1999),
        (MultiGraph(3000, tuple(chained)), 999),
    )
    for g, bridge_count in cases:
        assert g.bridge_tree.bridge_mask.bit_count() == bridge_count
        for closed in (False, True):
            assert isinstance(bridge_tree_rules_out_trail(g, closed), bool)
        mt = max_trail(g)
        assert not isinstance(mt, Unknown)
        validate_trail(g, mt.trail)
        assert mt.mt_star == len(set(mt.trail.vertices))
        assert isinstance(max_trail(g, node_budget=1000), (MaxTrailResult, Unknown))
        # From a leaf first: on the caterpillar a walk from the spine vertex
        # 1 would take ~2M steps (~12 s) to find a dominating trail.
        found = find_dominating_trail(g, False)
        assert isinstance(found, Trail) and dominates(g, found.vertices)
        for closed in (False, True):
            found = find_dominating_trail(g, closed, node_budget=1000)
            assert found is None or isinstance(found, (Trail, Unknown))


def test_trail_walk_memory_is_bounded_on_the_fifth_line_graph_of_k6_minus_e():
    # The main campaign at n = 5 searches L^4(K6 - e), 4,020 vertices and
    # 92,436 edges, for a dominating trail: 117,369 steps to a trail of 85,026
    # edges.  A memo of (end, used) keys shared by every start, with a copy of
    # the used-edge mask in each stack frame, peaked at ~1 GB there.  The
    # child caps its own address space at 400 MB.
    script = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (400 << 20, 400 << 20))
        from itline.families import complete
        from itline.graphcore import MultiGraph
        from itline.harness import verify_theorem_main
        report = verify_theorem_main([MultiGraph(6, complete(6).edges[1:])], 5)
        (record,) = report.records
        assert report.ok and "unknown" not in record, record
        assert record["truth_route"] == "dominating-trail", record
    """)
    src = os.path.dirname(os.path.dirname(itline.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]


# --- dominating trails ------------------------------------------------------


def test_dominating_trail_fig1_exists_and_bottom_path_dominates():
    g = fig1()
    found = find_dominating_trail(g, closed=False)
    assert found is not None and not isinstance(found, Unknown)
    assert dominates(g, set(found.vertices))
    # The full bottom path is itself a dominating trail.
    assert dominates(g, set(range(11)))


def test_dominating_closed_trail_cycle_is_itself():
    g = cycle(6)
    t = find_dominating_trail(g, closed=True)
    assert t.closed and set(t.edge_ids) == set(range(6))


def test_dominating_closed_trail_fig2_is_the_hexagon():
    g = fig2(1)
    t = find_dominating_trail(g, closed=True)
    hexagon = {eid for eid, (u, v) in enumerate(g.edges) if u < 6 and v < 6}
    assert t.closed and set(t.edge_ids) == hexagon


def test_dominating_trail_star_is_trivial():
    t = find_dominating_trail(star(5), closed=True)
    assert t.is_trivial
    assert t.vertices == (0,)


def test_dominating_trail_none_for_long_arm_family():
    assert find_dominating_trail(fig2(2), closed=True) is None
    assert find_dominating_trail(fig3(1, 6), closed=False) is None


def test_dominating_trail_two_cycle():
    t = find_dominating_trail(two_cycle(), closed=True)
    assert t is not None


def test_dominating_trail_budget_exhaustion_is_unknown():
    result = find_dominating_trail(fig3(1, 6), closed=False, node_budget=5)
    assert isinstance(result, Unknown)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_dominating_trail_witness_dominates(g):
    t = find_dominating_trail(g, closed=False)
    if t is None or isinstance(t, Unknown):
        return
    validate_trail(g, t)
    assert dominates(g, set(t.vertices))


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=5, max_extra_edges=4))
def test_dominating_closed_trail_is_closed_and_dominates(g):
    t = find_dominating_trail(g, closed=True)
    if t is None or isinstance(t, Unknown):
        return
    validate_trail(g, t)
    assert t.closed
    assert dominates(g, set(t.vertices))


# --- the bridge-tree certificate --------------------------------------------


def test_bridge_tree_certificate_on_named_graphs():
    # (open, closed) verdicts.  fig2(1)'s arms end in leaves, so none of its
    # bridges is inner; fig1's bridges at 1 and 9 are inner, but only two,
    # and path(6)'s three inner bridges meet each piece at most twice.
    # fig2(k >= 2), fig3 and fig4b meet three inner bridges at one piece.
    cases = {
        "fig1": (fig1(), False, True),
        "fig2(1)": (fig2(1), False, False),
        "fig2(2)": (fig2(2), True, True),
        "fig3(1,6)": (fig3(1, 6), True, True),
        "fig4b(1)": (fig4b(1), True, True),
        "spider(2,2,2)": (MultiGraph(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6))),
                          True, True),
        "path(6)": (path(6), False, True),
        "star(4)": (star(4), False, False),
        "cycle(5)": (cycle(5), False, False),
    }
    for name, (g, open_out, closed_out) in cases.items():
        assert bridge_tree_rules_out_trail(g, False) == open_out, name
        assert bridge_tree_rules_out_trail(g, True) == closed_out, name


@settings(deadline=None, max_examples=80)
@given(
    st.one_of(
        connected_multigraphs(max_vertices=6, max_extra_edges=3),
        doubled_multigraphs(max_vertices=6, max_edges=6),
        spiders(max_edges=11),
        brooms(),
    )
)
def test_bridge_tree_certificate_is_exact(g):
    # A ruled-out trail must not exist, by unmemoized enumeration.
    for closed in (False, True):
        if bridge_tree_rules_out_trail(g, closed):
            assert not brute_has_dominating_trail(g, closed)
