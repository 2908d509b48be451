"""Degree classes, branches, pendent cycles, maximum and dominating trails."""

from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from itline.budget import Unknown
from itline.families import complete, cycle, fig1, fig2, fig3, fig4b, path, star, two_cycle
from itline.graphcore import (
    DisconnectedGraphError,
    MultiGraph,
    trail_vertex_set,
    validate_trail,
)
from itline.structure import (
    branches,
    branches_b1,
    cycle_component_edges,
    degree_classes,
    dominates,
    find_dominating_trail,
    max_trail,
    pendent_cycles,
)

from .conftest import (
    attached_cycle_graphs,
    connected_multigraphs,
    long_branch_graphs,
    multigraphs,
)
from .oracles import brute_branches, brute_pendent_cycles, two_pendant_cycles_graph


def test_degree_classes_fig1():
    dc = degree_classes(fig1())
    assert dc.of(3) == frozenset({2, 5, 8, 11})
    assert dc.v_ge3 == frozenset({2, 5, 8, 11})
    assert dc.of(1) == frozenset({0, 10})


def test_degree_classes_cycle_has_no_w():
    assert degree_classes(cycle(6)).w == frozenset()


def test_degree_classes_star():
    dc = degree_classes(star(3))
    assert dc.of(1) == frozenset({1, 2, 3})
    assert dc.of(3) == frozenset({0})


def test_branches_fig1():
    bs = branches(fig1())
    assert len(bs) == 7
    assert len(branches_b1(fig1())) == 2
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
    cycle_edges = {e for comp in cycle_component_edges(g) for e in comp}
    assert seen | cycle_edges == set(range(g.edge_count))
    assert not seen & cycle_edges


def test_pendent_cycles_two():
    assert len(pendent_cycles(two_pendant_cycles_graph())) == 2


def test_pendent_cycles_standalone_cycle_none():
    assert pendent_cycles(cycle(5)) == ()


def test_pendent_cycles_fig2_none():
    # The hexagon meets three degree-3 vertices, so it is not pendent.
    assert pendent_cycles(fig2(1)) == ()


@settings(deadline=None)
@given(attached_cycle_graphs(max_edges=12))
def test_pendent_cycles_match_subset_enumeration(g):
    # Dual route for reading pendent cycles off the closed branches.
    found = pendent_cycles(g)
    assert [tuple(sorted(t.edge_ids)) for t in found] == brute_pendent_cycles(g)
    for t in found:
        validate_trail(g, t)
        assert t.closed and g.degree(t.vertices[0]) >= 3


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


@settings(deadline=None, max_examples=40)
@given(BRANCHY_GRAPHS)
def test_max_trail_matches_unmemoized_enumeration(g):
    # Dual route for the memoized pruning search.
    from .oracles import brute_max_trail_stats

    mt = max_trail(g)
    assert (mt.mt_star, mt.d3_star) == brute_max_trail_stats(g)


@settings(deadline=None, max_examples=40)
@given(BRANCHY_GRAPHS)
def test_dominating_trail_existence_matches_enumeration(g):
    from .oracles import brute_has_dominating_trail

    for closed in (False, True):
        found = find_dominating_trail(g, closed=closed)
        assert not isinstance(found, Unknown)
        assert (found is not None) == brute_has_dominating_trail(g, closed)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_max_trail_witness_consistency(g):
    mt = max_trail(g)
    validate_trail(g, mt.trail)
    visited = trail_vertex_set(mt.trail)
    v3 = {v for v in range(g.vertex_count) if g.degree(v) >= 3}
    assert mt.mt_star == len(visited)
    assert mt.d3_star == len(v3 - visited)


def test_trail_search_trees_are_pinned():
    # Nodes expanded.  On fig3(1,6), starting open walks at odd vertices only
    # takes max_trail from 398 to 255 nodes and the open dominating search
    # from 1,458 to 654, and skipping bridges takes the closed search from
    # 523 to 70.  max_trail on fig4b(1) (1,264 to 948) also meets carried
    # bounds too small to expand on, which must be searched again.  A lost
    # prune grows a tree past its pin.
    open_search = partial(find_dominating_trail, closed=False)
    closed_search = partial(find_dominating_trail, closed=True)
    cases = (
        (fig3(1, 6), max_trail, 255),
        (fig3(1, 6), open_search, 654),
        (fig3(1, 6), closed_search, 70),
        (fig4b(1), max_trail, 948),
    )
    for g, run, nodes in cases:
        starved = run(g, node_budget=nodes - 1)
        assert isinstance(starved, Unknown) and starved.budget_spent == nodes
        assert not isinstance(run(g, node_budget=nodes), Unknown)


def test_max_trail_stops_at_full_cover():
    # A trail through all n vertices also covers every degree->=3 vertex, so
    # max_trail stops at the first one: on K5 after 7 nodes (17 without the
    # stop).  fig3 and fig4b above never reach full cover.
    g = complete(5)
    starved = max_trail(g, node_budget=6)
    assert isinstance(starved, Unknown) and starved.budget_spent == 7
    mt = max_trail(g, node_budget=7)
    assert (mt.mt_star, mt.d3_star, mt.trail.edge_ids) == (5, 0, (0, 4, 1, 2, 5, 6))


# --- dominating trails ------------------------------------------------------


def test_dominating_trail_fig1_exists_and_bottom_path_dominates():
    g = fig1()
    found = find_dominating_trail(g, closed=False)
    assert found is not None and not isinstance(found, Unknown)
    assert dominates(g, trail_vertex_set(found))
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
    assert dominates(g, trail_vertex_set(t))


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=5, max_extra_edges=4))
def test_dominating_closed_trail_is_closed_and_dominates(g):
    t = find_dominating_trail(g, closed=True)
    if t is None or isinstance(t, Unknown):
        return
    validate_trail(g, t)
    assert t.closed
    assert dominates(g, trail_vertex_set(t))
