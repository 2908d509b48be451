"""Generator constructions: sizes, degrees, and parameter validation."""

import pytest
from hypothesis import given, strategies as st

from itline.families import (
    complete,
    cycle,
    fig1,
    fig2,
    fig3,
    fig4b,
    path,
    star,
    two_cycle,
)
from itline.graphcore import InputError, is_connected
from itline.structure import branches, cycle_component_edges

from .oracles import brute_pendent_cycles, neighbor_sets, vertices_of_degree


def _v_ge3(g):
    return vertices_of_degree(g, lambda d: d >= 3)


def test_fig1_shape():
    g = fig1()
    assert g.vertex_count == 12
    # Ten path edges plus three apex edges.
    assert g.edge_count == 13
    assert is_connected(g)
    assert _v_ge3(g) == frozenset({2, 5, 8, 11})


@given(st.integers(min_value=1, max_value=5))
def test_fig2_shape(k):
    g = fig2(k)
    assert g.vertex_count == 6 + 3 * k
    assert g.edge_count == 6 + 3 * k
    assert is_connected(g)
    assert vertices_of_degree(g, lambda d: d == 3) == frozenset({0, 2, 4})
    pendants = [b for b in branches(g) if b.touches_degree_one]
    assert len(pendants) == 3
    assert all(b.length == k for b in pendants)


def test_fig2_unique_cycle_is_hexagon():
    g = fig2(2)
    # No bare-cycle component (the hexagon has attachment vertices) and no
    # pendent cycle (it meets three degree-3 vertices).
    assert cycle_component_edges(g) == ()
    assert brute_pendent_cycles(g) == []


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4))
def test_fig3_shape(s, extra):
    t = s + 5 + extra
    g = fig3(s, t)
    assert g.vertex_count == 2 * t + s + 5
    assert g.edge_count == 2 * t + s + 7
    assert is_connected(g)
    assert len(_v_ge3(g)) == 5


def test_fig3_parameter_validation():
    with pytest.raises(InputError):
        fig3(2, 6)
    with pytest.raises(InputError):
        fig3(0, 6)


@given(st.integers(min_value=1, max_value=4))
def test_fig4b_shape(s):
    g = fig4b(s)
    assert g.vertex_count == 3 * s + 16
    assert g.edge_count == 3 * s + 24
    assert is_connected(g)
    center_nbrs = neighbor_sets(g)[0]
    assert len(center_nbrs) == 6
    v_ge3 = _v_ge3(g)
    assert len(v_ge3) == 13
    assert not v_ge3 & center_nbrs


def test_fig4b_three_long_arms():
    for s in (1, 2):
        arms = [b for b in branches(fig4b(s)) if b.length == s + 1]
        assert len(arms) == 3


def test_standard_generators():
    assert path(1).vertex_count == 1 and path(1).edge_count == 0
    assert two_cycle().vertex_count == 2 and two_cycle().edge_count == 2
    assert star(3).edge_count == 3
    assert complete(5).edge_count == 10
    assert cycle(3).edge_count == 3


def test_standard_generator_minimums():
    for bad in (lambda: path(0), lambda: cycle(2), lambda: star(0), lambda: complete(0)):
        with pytest.raises(InputError):
            bad()
