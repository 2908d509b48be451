"""Line-graph operator, iteration, and claw-freeness."""

from math import comb

import pytest
from hypothesis import given

from itline.families import cycle, path, star, two_cycle, complete
from itline.graphcore import InputError, MultiGraph
from itline.linegraph import (
    CapExceededError,
    EdgelessGraphError,
    iterated_line_graph,
    line_graph,
)

from .conftest import multigraphs
from .oracles import has_claw, is_isomorphic


def test_line_graph_of_path():
    assert is_isomorphic(line_graph(path(4)).graph, path(3))


def test_line_graph_of_claw_is_triangle():
    assert is_isomorphic(line_graph(star(3)).graph, cycle(3))


def test_line_graph_of_two_cycle_is_single_edge():
    lg = line_graph(two_cycle()).graph
    assert lg.vertex_count == 2 and lg.edge_count == 1


def test_line_graph_has_one_vertex_per_edge():
    g = complete(4)
    assert line_graph(g).graph.vertex_count == g.edge_count


def test_line_graph_adjacency_matches_shared_endpoints():
    g = MultiGraph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))
    lg = line_graph(g).graph
    pairs = {tuple(sorted(e)) for e in lg.edges}
    for a in range(g.edge_count):
        for b in range(a + 1, g.edge_count):
            share = bool(set(g.edges[a]) & set(g.edges[b]))
            assert ((a, b) in pairs) == share


def test_line_graph_edgeless_rejected():
    with pytest.raises(EdgelessGraphError):
        line_graph(MultiGraph(3, ()))


def test_iterated_line_graph_of_path_shrinks():
    assert is_isomorphic(iterated_line_graph(path(5), 2), path(3))


def test_iterated_line_graph_cycle_fixed_point():
    assert is_isomorphic(iterated_line_graph(cycle(6), 3), cycle(6))


def test_iterated_line_graph_claw():
    assert is_isomorphic(iterated_line_graph(star(3), 2), cycle(3))


def test_iterated_line_graph_zero_rejected():
    with pytest.raises(InputError):
        iterated_line_graph(path(3), 0)


def test_iterated_line_graph_cap_reports_level():
    with pytest.raises(CapExceededError) as err:
        iterated_line_graph(complete(4), 8, cap=50)
    assert err.value.level >= 2
    assert err.value.size > 50


def test_iterated_line_graph_path_collapse_reports_level():
    # P_3 -> P_2 -> K_1 -> undefined at the third application.
    with pytest.raises(EdgelessGraphError) as err:
        iterated_line_graph(path(3), 5)
    assert err.value.level == 3


def test_claw_free_examples():
    assert has_claw(star(3))
    assert not has_claw(cycle(5))


@given(multigraphs(max_vertices=5, max_edges=8))
def test_line_graph_always_claw_free(g):
    if g.edge_count == 0:
        return
    assert not has_claw(line_graph(g).graph)


@given(multigraphs(max_vertices=6, max_edges=9))
def test_line_graph_edge_count_formula_for_simple_inputs(g):
    if g.edge_count == 0:
        return
    pairs = [tuple(sorted(e)) for e in g.edges]
    if len(set(pairs)) != len(pairs):
        return
    expected = sum(comb(g.degree(v), 2) for v in range(g.vertex_count))
    assert line_graph(g).graph.edge_count == expected
