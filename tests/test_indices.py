"""Exact indices, the four upper bounds, and the direct-iteration cross-check."""

import hashlib
import json
import time
from functools import partial

import pytest
from hypothesis import given, settings

from itline import indices, linegraph
from itline.budget import Unknown
from itline.eup import find_witness
from itline.families import complete, cycle, fig1, fig2, fig3, fig4b, path, star, two_cycle
from itline.graphcore import GraphError, MultiGraph, SubgraphH, Trail, validate_trail
from itline.indices import (
    IndexResult,
    PathHasNoIndexError,
    bound_cor1,
    bound_cor2,
    bound_thm_b1,
    bound_thm_b2,
    compute_bounds,
    d3_doublestar,
    delta_prime,
    direct_index_cross_check,
    hamiltonian_index,
    hamiltonian_path_index,
    is_path_graph,
)
from itline.structure import MaxTrailResult, find_dominating_trail, max_trail

from .conftest import connected_multigraphs, multigraphs, simple_graphs
from .oracles import neighbor_sets


def test_path_index_of_paths_is_zero():
    for n in (1, 2, 5, 9):
        assert hamiltonian_path_index(path(n)).value == 0


def test_path_index_of_long_path_needs_no_recursion():
    assert hamiltonian_path_index(path(1500)).value == 0


LONG_GRAPHS = {
    "path": path(1500),
    "cycle": cycle(1500),
    "broom": MultiGraph(1502, path(1500).edges + ((0, 1500), (0, 1501))),
}
LONG_SEARCHES = {
    "max_trail": max_trail,
    "open_trail": partial(find_dominating_trail, closed=False),
    "closed_trail": partial(find_dominating_trail, closed=True),
    "eu_witness": partial(find_witness, k=2, variant="eu"),
    "eup_witness": partial(find_witness, k=2, variant="eup"),
    "path_index": hamiltonian_path_index,
}


@pytest.mark.parametrize("search", LONG_SEARCHES)
@pytest.mark.parametrize("graph", LONG_GRAPHS)
def test_long_inputs_answer_or_unknown(graph, search):
    g, run = LONG_GRAPHS[graph], LONG_SEARCHES[search]
    # Every case answers well inside the cap (the broom's EUP witness takes
    # 2,999 nodes, see below); the cap keeps a regression from running for
    # minutes at the default 30M nodes.
    answer = run(g, node_budget=20_000)
    assert answer is None or isinstance(
        answer, (Unknown, MaxTrailResult, Trail, SubgraphH, IndexResult)
    )
    starved = run(g, node_budget=50)
    if search == "eu_witness" and graph != "cycle":
        # A pendant branch longer than k rules out EU_k before any search.
        assert starved is None
    else:
        assert isinstance(starved, Unknown) and starved.budget_spent == 51


def test_broom_eup_witness_and_its_node_count():
    # The edge (1, 2) with the isolated vertex 0, found after exactly 2,999
    # nodes; one node fewer gives Unknown.
    g = LONG_GRAPHS["broom"]
    assert g.edges[1] == (1, 2)
    w = find_witness(g, 2, "eup", node_budget=2_999)
    assert w == SubgraphH(frozenset({1}), frozenset({0}))
    starved = find_witness(g, 2, "eup", node_budget=2_998)
    assert isinstance(starved, Unknown) and starved.budget_spent == 2_999


def test_long_trail_searches_answer():
    # Odd starts, skipped bridges and the carried bound settle the trail
    # searches on all three long graphs within the cap used above.  Each
    # max_trail takes ~0.03 s on a 2-vCPU machine; without the carried
    # bound, a reach search at every step from the broom's far end takes
    # ~1.3 s.
    for name, mt_star in (("path", 1500), ("cycle", 1500), ("broom", 1501)):
        g = LONG_GRAPHS[name]
        start = time.monotonic()
        mt = max_trail(g, node_budget=20_000)
        assert time.monotonic() - start < 0.5
        assert isinstance(mt, MaxTrailResult)
        assert (mt.mt_star, mt.d3_star) == (mt_star, 0)
        assert isinstance(find_dominating_trail(g, closed=False, node_budget=20_000), Trail)
        closed = find_dominating_trail(g, closed=True, node_budget=20_000)
        if name == "cycle":
            assert closed.closed and sorted(closed.edge_ids) == list(range(1500))
        else:
            assert closed is None


def test_path_index_of_stars():
    for m in (3, 4, 6):
        r = hamiltonian_path_index(star(m))
        assert r.value == 1
        assert r.method == "dominating-trail"
    # The two-leaf star is a path, hence already traceable.
    assert hamiltonian_path_index(star(2)).value == 0


def test_path_index_of_trail_family():
    r = hamiltonian_path_index(fig3(1, 6))
    assert r.value == 3
    assert r.method == "EUP-witness"


def test_path_index_of_fig1():
    assert hamiltonian_path_index(fig1()).value == 1


def test_cycle_index_basics():
    assert hamiltonian_index(cycle(5)).value == 0
    assert hamiltonian_index(two_cycle()).value == 0
    r = hamiltonian_index(star(3))
    assert r.value == 1 and r.method == "dominating-trail"
    assert hamiltonian_index(fig2(2)).value == 2


def test_level0_witnesses_are_a_closed_cycle_and_an_open_path():
    for g in (cycle(5), complete(4), two_cycle()):
        t = hamiltonian_index(g).witness
        validate_trail(g, t)
        assert t.closed and t.length == g.vertex_count
        assert sorted(t.vertices[1:]) == list(range(g.vertex_count))
    assert hamiltonian_index(cycle(5)).witness == Trail((0, 1, 2, 3, 4, 0), (0, 1, 2, 3, 4), True)
    assert hamiltonian_index(two_cycle()).witness == Trail((0, 1, 0), (0, 1), True)
    # The path index keeps its open witness.
    assert hamiltonian_path_index(cycle(5)).witness == Trail((0, 1, 2, 3, 4), (0, 1, 2, 3), False)
    assert hamiltonian_path_index(two_cycle()).witness == Trail((0, 1), (0,), False)


def test_cycle_index_rejects_paths():
    for g in (path(1), path(2), path(5)):
        assert is_path_graph(g)
        with pytest.raises(PathHasNoIndexError):
            hamiltonian_index(g)


def test_index_result_witness_types():
    assert isinstance(hamiltonian_path_index(path(4)).witness, Trail)
    assert isinstance(hamiltonian_path_index(star(3)).witness, Trail)
    assert isinstance(hamiltonian_path_index(fig2(2)).witness, SubgraphH)


def test_unknown_propagates_from_budget():
    result = hamiltonian_path_index(fig3(1, 6), node_budget=50)
    assert isinstance(result, Unknown)


# --- bounds -----------------------------------------------------------------


def test_bound_thm_b1_values():
    assert bound_thm_b1(fig3(1, 6)) == 18 - 13 - 4 + 2 == 3
    assert bound_thm_b1(path(7)) == 2
    assert bound_thm_b1(cycle(8)) == 2


def test_bound_cor1_cor2_values():
    assert bound_cor1(path(6)) == 1
    assert bound_cor2(path(6)) == 1
    assert bound_cor1(fig3(1, 6)) == 5
    # Diameter of the k=2 arm family is 2k+2 = 6.
    assert bound_cor2(fig2(2)) == max(1, 12 - 6 - 1) == 5


def test_bound_thm_b2_values():
    assert delta_prime(fig4b(1)) == 6
    assert d3_doublestar(fig4b(1)) == 13
    assert bound_thm_b2(fig4b(1)) == (19 - 6 - 13) // 3 + 3 == 3
    assert bound_thm_b2(fig4b(2)) == 4


def test_delta_prime_counts_distinct_neighbors():
    assert delta_prime(two_cycle()) == 1
    assert d3_doublestar(two_cycle()) == 0


def test_low_delta_prime_means_traceable():
    for g in (path(6), cycle(7)):
        assert delta_prime(g) <= 2
        assert hamiltonian_path_index(g).value == 0
        assert bound_thm_b2(g) >= 0


@given(simple_graphs(max_vertices=6))
def test_delta_prime_equals_max_degree_on_simple_graphs(g):
    assert delta_prime(g) == max(
        (g.degree(v) for v in range(g.vertex_count)), default=0
    )


@given(multigraphs(max_vertices=7, max_edges=12))
def test_neighbor_statistics_match_edge_list(g):
    # d3** looks only at the vertices with delta' distinct neighbours.
    nbrs = neighbor_sets(g)
    dp = max(map(len, nbrs), default=0)
    v3 = {v for v in range(g.vertex_count) if g.degree(v) >= 3}
    assert delta_prime(g) == dp
    assert d3_doublestar(g) == max(len(v3 - ws) for ws in nbrs if len(ws) == dp)


def test_compute_bounds_report_shape():
    rep = compute_bounds(fig3(1, 6))
    d = rep.to_dict()
    assert set(d) == {"thm_b1", "cor1", "cor2", "thm_b2", "stats", "unknowns"}
    assert d["thm_b1"] == 3 and d["cor1"] == 5 and d["cor2"] == 5
    assert d["stats"]["mt_star"] == 13 and d["stats"]["d3_star"] == 4


@settings(deadline=None, max_examples=30)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=3))
def test_bounds_dominate_exact_index(g):
    hp = hamiltonian_path_index(g)
    if isinstance(hp, Unknown):
        return
    rep = compute_bounds(g)
    for b in (rep.thm_b1, rep.cor1, rep.cor2, rep.thm_b2):
        assert b is None or hp.value <= b
    if not is_path_graph(g):
        h = hamiltonian_index(g)
        if not isinstance(h, Unknown):
            assert hp.value <= h.value


def test_index_value_method_consistency():
    for g in (path(5), star(3), fig2(2), fig3(1, 6)):
        r = hamiltonian_path_index(g)
        if r.value == 0:
            assert r.method == "direct-oracle"
        elif r.value == 1:
            assert r.method == "dominating-trail"
        else:
            assert r.method == "EUP-witness"


# sha256 of [value, method, witness] of the path index and then the cycle
# index (None on paths) on the graphs below.  The values and methods are those
# the driver gave when it searched every level; the certificates are exact,
# so none may change.  The witnesses follow the search order.
INDEX_DIGEST = "5ff69a97cec8ee60dc55a8748e6f730cc9ca4b5f80cf976e1a7744e52c343ebe"


def test_indices_match_pinned_digest(corpus6):
    def entry(r):
        w = r.witness
        if isinstance(w, Trail):
            return [r.value, r.method, [list(w.vertices), list(w.edge_ids), w.closed]]
        return [r.value, r.method, [sorted(w.edge_ids), sorted(w.extra_vertices)]]

    graphs = list(corpus6) + [
        fig1(), fig2(1), fig2(2), fig2(3), fig3(1, 6), fig3(2, 7), fig4b(1),
    ]
    entries = []
    for g in graphs:
        entries.append(entry(hamiltonian_path_index(g)))
        entries.append(None if is_path_graph(g) else entry(hamiltonian_index(g)))
    assert len(entries) == 300 and entries.count(None) == 6
    blob = json.dumps(entries, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == INDEX_DIGEST


def test_index_skips_ruled_out_levels_and_defers_the_stop_bound(monkeypatch):
    calls = []

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for name in ("find_dominating_trail", "bound_cor2", "_cycle_index_stop"):
        monkeypatch.setattr(indices, name, counted(getattr(indices, name)))
    # fig2(1) has a dominating trail; fig2(2)'s hexagon meets three inner
    # bridges, and its level 2 settles without the stop bound.
    assert hamiltonian_path_index(fig2(1)).value == 1
    assert calls == ["find_dominating_trail"]
    calls.clear()
    assert hamiltonian_path_index(fig2(2)).value == 2
    assert hamiltonian_index(fig2(2)).value == 2
    assert calls == []
    # fig3(2,7) needs level 4, so level 2 comes up empty and the bound is
    # read once.
    assert hamiltonian_path_index(fig3(2, 7)).value == 4
    assert calls == ["bound_cor2"]


def test_index_still_raises_past_the_stop_bound(monkeypatch):
    levels = []

    def never(g, k, variant, **kwargs):
        levels.append(k)
        return None

    monkeypatch.setattr(indices, "find_witness", never)
    with pytest.raises(GraphError, match="stopping bound"):
        hamiltonian_path_index(fig2(2))
    # bound_cor2: 12 vertices, diameter 6.
    assert levels == [2, 3, 4, 5]


# --- direct cross-check -------------------------------------------------------


def test_cross_check_confirms_star():
    r = hamiltonian_path_index(star(3))
    check = direct_index_cross_check(star(3), r)
    assert check.status == "confirmed"


def test_cross_check_confirms_traceable_path():
    r = hamiltonian_path_index(path(6))
    check = direct_index_cross_check(path(6), r)
    assert (check.status, check.detail) == ("confirmed", "level 0 behaves as claimed")


def test_cross_check_confirms_fig2_level2():
    g = fig2(2)
    r = hamiltonian_path_index(g)
    assert r.value == 2
    check = direct_index_cross_check(g, r)
    assert (check.status, check.detail) == ("confirmed", "levels 1,2 behave as claimed")
    rh = hamiltonian_index(g)
    assert direct_index_cross_check(g, rh).status == "confirmed"


def test_cross_check_detects_wrong_claims():
    g = star(3)
    too_low = IndexResult(0, "direct-oracle", "hp")
    too_high = IndexResult(2, "EUP-witness", "hp")
    assert direct_index_cross_check(g, too_low).status == "mismatch"
    assert direct_index_cross_check(g, too_high).status == "mismatch"


def test_cross_check_cap_exceeded():
    # L^3(K6) has 5,460 edges, so level 4 is over the cap of 5,000 vertices:
    # a claim at level 5 stops where it would build level 4.
    check = direct_index_cross_check(complete(6), IndexResult(5, "EU-witness", "h"))
    assert (check.status, check.detail) == (
        "cap_exceeded",
        "line-graph iteration stopped at level 4: 5460 vertices exceeds cap 5000",
    )


def test_cross_check_builds_each_level_once(monkeypatch):
    # Each level is the line graph of the one before.  On fig3(1,6), hp = 3
    # reads levels 2 and 3 (3 builds), and h = 6 reads level 5 and stops
    # at level 6, which is over the cap (5 builds); K5 is hamiltonian at
    # level 0, which needs no build.
    claims = [
        (fig3(1, 6), hamiltonian_path_index(fig3(1, 6)), 3, "levels 2,3 behave as claimed"),
        (fig3(1, 6), hamiltonian_index(fig3(1, 6)), 5,
         "line-graph iteration stopped at level 6: 77982 vertices exceeds cap 5000"),
        (complete(5), hamiltonian_index(complete(5)), 0, "level 0 behaves as claimed"),
    ]
    built = []
    build = linegraph.line_graph
    monkeypatch.setattr(linegraph, "line_graph", lambda g: built.append(g) or build(g))
    for g, claimed, builds, detail in claims:
        built.clear()
        assert direct_index_cross_check(g, claimed).detail == detail
        assert len(built) == builds
