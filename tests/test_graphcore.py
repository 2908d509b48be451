"""Multigraph basics: degrees, distances, subgraph views, trails, text formats."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from itline.families import cycle, fig1, fig4b, path, star, two_cycle
from itline.graphcore import (
    InputError,
    DisconnectedGraphError,
    MultiGraph,
    ParseError,
    Trail,
    _flood,
    all_pairs_distances,
    bfs_distances,
    bridges,
    connected_components,
    diameter,
    graph6_from_mask,
    incident_edges,
    is_connected,
    odd_vertices,
    parse_edgelist,
    parse_graph6,
    subgraph,
    subgraph_components,
    subgraph_distance,
    to_edgelist,
    to_graph6,
    trail_from_order,
    trivial_trail,
    validate_trail,
)

from .conftest import doubled_multigraphs, multigraphs, simple_graphs
from .oracles import (
    brute_subgraph_distance,
    floyd_warshall,
    layered_reach,
    neighbor_sets,
    subgraph_components_by_edges,
    trail_along_order,
)


def test_loops_rejected():
    with pytest.raises(InputError):
        MultiGraph(2, ((0, 0),))


def test_endpoint_out_of_range():
    with pytest.raises(InputError):
        MultiGraph(2, ((0, 2),))


def test_degree_counts_parallel_edges():
    assert two_cycle().degree(0) == 2


def test_degree_isolated_vertex():
    g = MultiGraph(3, ((0, 1),))
    assert g.degree(2) == 0


def test_degree_star_center():
    assert star(3).degree(0) == 3


def test_degree_unknown_vertex():
    with pytest.raises(InputError):
        star(3).degree(9)


def test_distinct_neighbors_collapse_parallels():
    assert two_cycle().distinct_neighbors(0) == frozenset({1})


def test_distinct_neighbors_center_of_arm_graph():
    assert len(fig4b(1).distinct_neighbors(0)) == 6


def test_subgraph_distance_overlap_zero():
    g = path(4)
    assert subgraph_distance(g, {0, 1}, {1, 2}) == 0


def test_subgraph_distance_apex_to_path():
    # Frozen from the brute-force all-pairs oracle: the apex of fig1 touches
    # the path directly.
    g = fig1()
    assert subgraph_distance(g, {11}, set(range(11))) == 1
    assert brute_subgraph_distance(g, {11}, set(range(11))) == 1


def test_subgraph_distance_disconnected_infinite():
    g = MultiGraph(4, ((0, 1), (2, 3)))
    assert subgraph_distance(g, {0}, {3}) == math.inf


def test_subgraph_distance_empty_set_rejected():
    with pytest.raises(InputError):
        subgraph_distance(path(3), set(), {0})


@given(multigraphs())
def test_degree_sum_is_twice_edges(g):
    assert sum(g.degree(v) for v in range(g.vertex_count)) == 2 * g.edge_count


@given(multigraphs(max_vertices=5, max_edges=7))
def test_subgraph_distance_symmetric(g):
    verts = range(g.vertex_count)
    for u in verts:
        for v in verts:
            assert subgraph_distance(g, {u}, {v}) == subgraph_distance(g, {v}, {u})


@given(multigraphs(max_vertices=5, max_edges=7))
def test_subgraph_distance_triangle_through_singletons(g):
    verts = range(g.vertex_count)
    for u in verts:
        for v in verts:
            for w in verts:
                d_uv = subgraph_distance(g, {u}, {v})
                d_vw = subgraph_distance(g, {v}, {w})
                d_uw = subgraph_distance(g, {u}, {w})
                assert d_uw <= d_uv + d_vw


@given(multigraphs(max_vertices=5, max_edges=7))
def test_subgraph_distance_matches_floyd_warshall(g):
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            assert subgraph_distance(g, {u}, {v}) == brute_subgraph_distance(g, [u], [v])


@given(multigraphs(max_vertices=7, max_edges=9), st.data())
def test_subgraph_distance_between_vertex_sets_matches_floyd_warshall(g, data):
    verts = st.sets(st.integers(0, g.vertex_count - 1), min_size=1)
    a, b = data.draw(verts), data.draw(verts)
    assert subgraph_distance(g, a, b) == brute_subgraph_distance(g, a, b)


def test_diameter_path():
    assert diameter(path(5)) == 4


def test_diameter_disconnected_rejected():
    with pytest.raises(DisconnectedGraphError):
        diameter(MultiGraph(3, ((0, 1),)))


def test_connected_components():
    g = MultiGraph(5, ((0, 1), (1, 2), (3, 4)))
    assert connected_components(g) == (frozenset({0, 1, 2}), frozenset({3, 4}))


def test_empty_graph_has_no_components():
    assert connected_components(MultiGraph(0)) == ()
    assert not is_connected(MultiGraph(0))


@given(doubled_multigraphs(max_vertices=7, max_edges=9))
def test_adjacency_routes_match_edge_list_and_floyd_warshall(g):
    # Dual route for everything read off the neighbour masks or lists:
    # neighbour sets straight from the edge list, distances by Floyd-Warshall,
    # components as the classes of finite distance.
    n = g.vertex_count
    dist = floyd_warshall(g)
    nbrs = neighbor_sets(g)
    for v in range(n):
        assert g.distinct_neighbors(v) == frozenset(nbrs[v])
        assert bfs_distances(g, v) == dist[v]
    assert all_pairs_distances(g) == dist
    classes = {frozenset(w for w in range(n) if dist[v][w] < math.inf) for v in range(n)}
    assert connected_components(g) == tuple(sorted(classes, key=min))
    assert is_connected(g) == (len(classes) == 1)
    if len(classes) == 1:
        assert diameter(g) == max(map(max, dist))
    else:
        with pytest.raises(DisconnectedGraphError):
            diameter(g)


def _members(mask):
    return {v for v in range(mask.bit_length()) if mask >> v & 1}


@given(
    doubled_multigraphs(max_vertices=8, max_edges=10),
    st.data(),
    st.sampled_from([None, 0, 1, 2, 3]),
)
def test_flood_matches_layered_bfs(g, data, radius):
    # The one closure loop over vertex masks, against a BFS ring by ring over
    # edge-list neighbour sets: random seed, random allowed set (or every
    # vertex, the default), radius unbounded or 0..3.
    everyone = (1 << g.vertex_count) - 1
    seed = data.draw(st.integers(0, everyone))
    within = data.draw(st.one_of(st.just(-1), st.integers(0, everyone)))
    allowed = set(range(g.vertex_count)) if within == -1 else _members(within)
    got = _flood(g.neighbor_masks, seed, within, radius)
    assert _members(got) == layered_reach(g, _members(seed), allowed, radius)


@given(doubled_multigraphs(max_vertices=8, max_edges=10), st.data())
def test_subgraph_components_match_edge_merging(g, data):
    chosen = data.draw(st.sets(st.integers(0, g.edge_count - 1))) if g.edge_count else set()
    touched = {v for eid in chosen for v in g.edges[eid]}
    extras = data.draw(st.sets(st.sampled_from(range(g.vertex_count)))) - touched
    h = subgraph(g, chosen, extras)
    assert subgraph_components(g, h) == subgraph_components_by_edges(g, chosen, extras)


@given(doubled_multigraphs(max_vertices=6, max_edges=8), st.data())
def test_trail_from_order_matches_edge_list_scan(g, data):
    # The vertex order of a random trail, open, and closed when the trail
    # ends where it began: trail_from_order must join it by the smallest
    # unused edge ids, as a scan of the edge list does.  Doubled edges give
    # parallel pairs, and so closed orders on 2 vertices.
    if not g.edge_count:
        return
    v = data.draw(st.sampled_from(g.edges))[0]
    order, used = [v], set()
    for _ in range(data.draw(st.integers(1, g.edge_count))):
        free = [e for e, pair in enumerate(g.edges) if v in pair and e not in used]
        if not free:
            break
        eid = data.draw(st.sampled_from(free))
        used.add(eid)
        v = sum(g.edges[eid]) - v
        order.append(v)
    orders = [(order, False)]
    if len(order) > 2 and order[-1] == order[0]:
        orders.append((order[:-1], True))
    for o, closed in orders:
        t = trail_from_order(g, o, closed)
        assert (t.vertices, t.edge_ids) == trail_along_order(g, o, closed)
        assert t.closed == (t.vertices[0] == t.vertices[-1])
        validate_trail(g, t)


def test_trail_from_order_closes_a_two_cycle_by_its_second_edge():
    t = trail_from_order(two_cycle(), (1, 0), closed=True)
    assert (t.vertices, t.edge_ids, t.closed) == ((1, 0, 1), (0, 1), True)


@pytest.mark.parametrize("order", [(0, 2), (-1, 1), (1, 3), (0, 1, 0)])
def test_trail_from_order_rejects_an_order_no_trail_follows(order):
    with pytest.raises(InputError):
        trail_from_order(path(3), order)


def test_bridges_of_named_graphs():
    assert bridges(MultiGraph(3, ((0, 1), (0, 1), (1, 2)))) == {2}
    assert bridges(path(1500)) == frozenset(range(1499))
    assert bridges(cycle(1500)) == frozenset()


@given(doubled_multigraphs(max_vertices=6, max_edges=9))
def test_bridges_match_edge_deletion(g):
    # Dual route: an edge is a bridge iff deleting it leaves more components.
    # Doubling some edges makes parallel pairs, which are never bridges.
    count = len(connected_components(g))
    brute = {
        eid
        for eid in range(g.edge_count)
        if len(connected_components(MultiGraph(g.vertex_count, g.edges[:eid] + g.edges[eid + 1:])))
        > count
    }
    assert bridges(g) == brute


def test_incident_edges_whole_graph():
    g = star(3)
    h = subgraph(g, range(g.edge_count))
    assert incident_edges(g, h) == frozenset(range(g.edge_count))


def test_odd_vertices_of_cycle_subgraph():
    g = MultiGraph(3, ((0, 1), (1, 2), (2, 0)))
    h = subgraph(g, {0, 1, 2})
    assert odd_vertices(g, h) == frozenset()


def test_subgraph_extras_must_be_isolated():
    g = path(3)
    with pytest.raises(InputError):
        subgraph(g, {0}, {1})


def test_subgraph_components_extras_are_singletons():
    g = path(5)
    h = subgraph(g, {0}, {3})
    comps = subgraph_components(g, h)
    assert frozenset({3}) in comps
    assert frozenset({0, 1}) in comps
    assert len(comps) == 2


# --- trails ---------------------------------------------------------------


def test_trail_validation():
    g = path(4)
    t = Trail((0, 1, 2), (0, 1), False)
    validate_trail(g, t)
    assert t.length == 2 and not t.is_trivial


def test_trail_repeated_edge_rejected():
    with pytest.raises(InputError):
        Trail((0, 1, 0), (0, 0), True)


def test_trail_closed_flag_consistency():
    with pytest.raises(InputError):
        Trail((0, 1), (0,), True)


def test_trivial_trail():
    t = trivial_trail(3)
    assert t.is_trivial and t.closed and t.vertices == (3,)


def test_trail_bad_incidence_rejected():
    g = path(4)
    with pytest.raises(InputError):
        validate_trail(g, Trail((0, 2), (0,), False))


# --- text formats ----------------------------------------------------------


def test_edgelist_round_trip():
    g = fig1()
    assert parse_edgelist(to_edgelist(g)) == g


def test_edgelist_duplicates_create_parallels():
    g = parse_edgelist("2 2\n0 1\n0 1\n")
    assert g.edge_count == 2
    assert g.degree(0) == 2


def test_edgelist_malformed_reports_line():
    with pytest.raises(ParseError) as err:
        parse_edgelist("2 1\nnope\n")
    assert err.value.line == 2


def test_edgelist_wrong_edge_count():
    with pytest.raises(ParseError):
        parse_edgelist("3 2\n0 1\n")


@given(multigraphs())
def test_edgelist_round_trip_property(g):
    assert parse_edgelist(to_edgelist(g)) == g


@given(simple_graphs())
def test_graph6_round_trip(g):
    # graph6 carries no edge ordering, so compare endpoint-pair sets.
    back = parse_graph6(to_graph6(g))
    assert back.vertex_count == g.vertex_count
    assert sorted(map(sorted, back.edges)) == sorted(map(sorted, g.edges))


def test_graph6_short_strings_round_trip():
    for s in ("D?{", "DQw", "A_", "Bw", "@"):
        assert to_graph6(parse_graph6(s)) == s


def test_graph6_header_accepted():
    assert parse_graph6(">>graph6<<D?{") == parse_graph6("D?{")


@pytest.mark.parametrize("n", [0, 1, 2, 6, 7, 62, 63, 64, 100])
def test_graph6_from_mask_matches_to_graph6(n):
    # Bit j(j-1)/2 + i of the mask is the pair (i, j); from 63 vertices on,
    # the header is four bytes.
    rng = random.Random(n)
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    for _ in range(5):
        mask = rng.getrandbits(len(pairs)) if pairs else 0
        g = MultiGraph(n, tuple(p for b, p in enumerate(pairs) if mask >> b & 1))
        encoded = graph6_from_mask(n, mask)
        assert encoded == to_graph6(g)
        assert encoded.startswith("~") == (n >= 63)


def test_graph6_rejects_multigraph_on_encode():
    with pytest.raises(InputError):
        to_graph6(two_cycle())


def test_graph6_bad_byte_offset():
    with pytest.raises(ParseError):
        parse_graph6("D \xff")


def test_graph6_wrong_body_length():
    with pytest.raises(ParseError):
        parse_graph6("D?")
