"""Hamiltonicity oracles and the dominating-trail lifts."""

import hashlib
import json

import pytest
from hypothesis import given, settings

from itline.budget import Budget, Unknown
from itline.families import complete, cycle, fig1, fig2, fig3, fig4b, path, star, two_cycle
from itline.graphcore import InputError, MultiGraph, Trail, mask_members, trivial_trail
from itline.hamilton import (
    _search,
    _search_from,
    _starts,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    lift_closed_trail_to_cycle,
    lift_trail_to_path,
)
from itline.linegraph import iterated_line_graph, line_graph
from itline.structure import find_dominating_trail

from .conftest import connected_multigraphs
from .oracles import (
    brute_is_hamiltonian,
    brute_is_traceable,
    held_karp_is_hamiltonian,
    held_karp_is_traceable,
    petersen,
)


def test_path_graph_oracles():
    g = path(6)
    assert has_hamiltonian_path(g).value
    assert not has_hamiltonian_cycle(g).value


def test_claw_not_traceable():
    assert not has_hamiltonian_path(star(3)).value


def test_petersen_traceable_not_hamiltonian():
    g = petersen()
    assert has_hamiltonian_path(g).value
    assert not has_hamiltonian_cycle(g).value


def test_two_cycle_is_hamiltonian():
    assert has_hamiltonian_cycle(two_cycle()).value
    assert has_hamiltonian_path(two_cycle()).value


def test_single_vertex_conventions():
    g = MultiGraph(1, ())
    assert has_hamiltonian_path(g).value
    assert has_hamiltonian_cycle(g).value


def test_single_edge_not_hamiltonian():
    assert not has_hamiltonian_cycle(path(2)).value


def test_witness_orders_verify():
    for g in (cycle(5), complete(4), petersen()):
        answer = has_hamiltonian_path(g)
        assert is_hamiltonian_path(g, answer.order)
    answer = has_hamiltonian_cycle(cycle(7))
    assert is_hamiltonian_cycle(cycle(7), answer.order)


def test_backtracking_budget_exhaustion_is_unknown():
    result = has_hamiltonian_path(petersen(), node_budget=2)
    assert isinstance(result, Unknown)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=7, max_extra_edges=4))
def test_oracles_agree_with_permutation_check(g):
    assert has_hamiltonian_path(g).value == brute_is_traceable(g)
    assert has_hamiltonian_cycle(g).value == brute_is_hamiltonian(g)


@given(connected_multigraphs(max_vertices=7, max_extra_edges=4))
def test_parallel_edges_leave_the_search_unchanged(g):
    # The search steps to distinct neighbours, so the simple graph with the
    # same adjacency gets the same answer after the same number of nodes.
    simple = MultiGraph(g.vertex_count, tuple({tuple(sorted(e)) for e in g.edges}))
    for cycle_wanted in (False, True):
        runs = []
        for h in (g, simple):
            budget = Budget()
            runs.append((_search(h, cycle_wanted, budget), budget.spent))
        assert runs[0] == runs[1]


@given(connected_multigraphs(max_vertices=8, max_extra_edges=6))
def test_first_descent_returns_the_backtracking_order(g):
    # _search walks each start's first descent before it backtracks; the
    # order it returns is the one the backtracking search alone finds first.
    # The oracles answer one vertex, and a cycle on two, without a search.
    adj = g.neighbor_masks
    nbrs = [mask_members(m) for m in adj]
    for cycle_wanted in (False, True):
        if g.vertex_count < 2 + cycle_wanted:
            continue
        alone = next(
            (order for order in (_search_from(s, nbrs, adj, cycle_wanted, Budget())
                                 for s in _starts(adj, cycle_wanted)) if order is not None),
            None,
        )
        assert _search(g, cycle_wanted, Budget()) == alone


# sha256 of [value, order] from has_hamiltonian_path and then
# has_hamiltonian_cycle on the graphs below, as the oracle gave them when it
# backtracked from every start without walking a first descent.
ORACLE_DIGEST = "083aad81a3f7daf64d411b538e20b2d95b812f7d8a6e0a78d1fa4e1b58ada551"


def test_oracle_witnesses_match_pinned_digest(corpus6):
    graphs = []
    for g in corpus6:
        graphs.append(g)
        if g.edge_count:
            lg = line_graph(g).graph
            graphs.append(lg)
            if 0 < lg.edge_count <= 20:
                graphs.append(line_graph(lg).graph)
    graphs += [fig1(), fig2(1), fig2(2), fig2(3), fig3(1, 6), fig3(2, 7), fig4b(1)]
    entries = []
    for g in graphs:
        for oracle in (has_hamiltonian_path, has_hamiltonian_cycle):
            answer = oracle(g)
            assert not isinstance(answer, Unknown)
            entries.append([answer.value, None if answer.order is None else list(answer.order)])
    assert len(entries) == 778 and sum(value for value, _ in entries) == 633
    blob = json.dumps(entries, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == ORACLE_DIGEST


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=7, max_extra_edges=4))
def test_dp_and_backtracking_agree(g):
    # The Held-Karp subset dynamic program lives in the test oracles only; the
    # package answers by backtracking search.
    assert has_hamiltonian_path(g).value == held_karp_is_traceable(g)
    assert has_hamiltonian_cycle(g).value == held_karp_is_hamiltonian(g)


def test_hamiltonian_second_line_graph_within_small_budget():
    # A 20-vertex L^2(G) on which a search without exit-count pruning and
    # most-constrained-first ordering expands millions of nodes.
    g = MultiGraph(6, ((0, 2), (2, 3), (0, 4), (1, 4), (3, 4), (1, 5), (2, 5), (3, 5), (4, 5)))
    l2 = iterated_line_graph(g, 2)
    assert l2.vertex_count == 20
    answer = has_hamiltonian_cycle(l2, node_budget=100_000)
    assert answer.value and is_hamiltonian_cycle(l2, answer.order)


@pytest.mark.parametrize(
    "g, cycle_wanted",
    [
        (petersen(), True),
        (fig1(), False),
        (fig3(1, 6), False),
        (line_graph(fig4b(1)).graph, False),
    ],
    ids=["petersen-cycle", "fig1-path", "fig3(1,6)-path", "L(fig4b(1))-path"],
)
def test_no_instances_are_refuted(g, cycle_wanted):
    oracle = has_hamiltonian_cycle if cycle_wanted else has_hamiltonian_path
    assert oracle(g).value is False


def test_long_paths_and_cycles_need_no_recursion():
    assert has_hamiltonian_path(path(1500)).value
    assert has_hamiltonian_path(cycle(1500)).value
    answer = has_hamiltonian_cycle(cycle(1500))
    assert answer.value and is_hamiltonian_cycle(cycle(1500), answer.order)


# --- lifts ------------------------------------------------------------------


def _path_trail(g, vertices):
    eids = []
    for i in range(len(vertices) - 1):
        want = {vertices[i], vertices[i + 1]}
        eids.append(next(e for e in g.incidence[vertices[i]]
                         if set(g.endpoints(e)) == want))
    return Trail(tuple(vertices), tuple(eids), vertices[0] == vertices[-1])


def test_lift_fig1_bottom_path():
    g = fig1()
    t = _path_trail(g, list(range(11)))
    lifted = lift_trail_to_path(g, t)
    lg = line_graph(g).graph
    assert is_hamiltonian_path(lg, lifted.vertices)
    assert len(lifted.vertices) == g.edge_count


def test_lift_single_edge_trail_of_claw():
    g = star(3)
    t = _path_trail(g, [0, 1])
    lifted = lift_trail_to_path(g, t)
    assert is_hamiltonian_path(line_graph(g).graph, lifted.vertices)
    assert sorted(lifted.vertices) == [0, 1, 2]


def test_lift_closed_cycle_trail():
    g = cycle(6)
    t = _path_trail(g, [0, 1, 2, 3, 4, 5, 0])
    lifted = lift_closed_trail_to_cycle(g, t)
    assert lifted.closed
    assert is_hamiltonian_cycle(line_graph(g).graph, lifted.vertices[:-1])


def test_lift_closed_fig2_hexagon():
    g = fig2(1)
    t = _path_trail(g, [0, 1, 2, 3, 4, 5, 0])
    lifted = lift_closed_trail_to_cycle(g, t)
    lg = line_graph(g).graph
    assert lg.vertex_count == 9
    assert is_hamiltonian_cycle(lg, lifted.vertices[:-1])


def test_lift_closed_triangle_of_k4():
    # A triangle dominates the whole K_4.
    g = complete(4)
    t = _path_trail(g, [0, 1, 2, 0])
    lifted = lift_closed_trail_to_cycle(g, t)
    assert is_hamiltonian_cycle(line_graph(g).graph, lifted.vertices[:-1])


def test_lift_trivial_trail_of_star():
    g = star(4)
    lifted = lift_closed_trail_to_cycle(g, trivial_trail(0))
    assert is_hamiltonian_cycle(line_graph(g).graph, lifted.vertices[:-1])


def test_lift_rejects_non_dominating_trail():
    g = fig2(2)
    t = _path_trail(g, [0, 1])
    with pytest.raises(InputError):
        lift_trail_to_path(g, t)


def test_cycle_lift_rejects_open_trail():
    g = cycle(6)
    t = _path_trail(g, [0, 1, 2])
    with pytest.raises(InputError):
        lift_closed_trail_to_cycle(g, t)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_lift_soundness_wherever_a_trail_exists(g):
    if g.edge_count == 0:
        return
    t = find_dominating_trail(g, closed=False)
    if t is None or isinstance(t, Unknown):
        return
    lifted = lift_trail_to_path(g, t)
    assert is_hamiltonian_path(line_graph(g).graph, lifted.vertices)


@settings(deadline=None)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=4))
def test_closed_lift_soundness_wherever_a_closed_trail_exists(g):
    if g.edge_count < 3:
        return
    t = find_dominating_trail(g, closed=True)
    if t is None or isinstance(t, Unknown):
        return
    lifted = lift_closed_trail_to_cycle(g, t)
    assert is_hamiltonian_cycle(line_graph(g).graph, lifted.vertices[:-1])
