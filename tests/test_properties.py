"""Structural property suites, runnable standalone.

Covers: line-graph outputs are claw-free and obey the edge-count formula;
the branch correspondence between a graph and its line graph; witness-family
monotonicity and containment; lift soundness over the whole corpus.
"""

from math import comb

from hypothesis import given, settings

from itline.budget import Unknown
from itline.eup import VARIANT_EU, VARIANT_EUP, check_conditions, find_witness
from itline.families import fig1, fig2
from itline.graphcore import is_connected
from itline.hamilton import (
    is_hamiltonian_cycle,
    is_hamiltonian_path,
    lift_closed_trail_to_cycle,
    lift_trail_to_path,
)
from itline.linegraph import line_graph
from itline.structure import branches, find_dominating_trail

from .conftest import connected_multigraphs
from .oracles import brute_simple_paths, has_claw


def test_line_graph_outputs_claw_free_on_corpus(corpus6):
    for g in corpus6:
        if g.edge_count == 0:
            continue
        assert not has_claw(line_graph(g).graph)


def test_line_graph_edge_formula_on_corpus(corpus6):
    for g in corpus6:
        if g.edge_count == 0:
            continue
        expected = sum(comb(g.degree(v), 2) for v in range(g.vertex_count))
        assert line_graph(g).graph.edge_count == expected


def _branch_correspondence_holds(g) -> bool:
    """Branch membership transfers between a path and its edge sequence.

    Forward for every path with >= 3 vertices; the equivalence needs the
    image to be a branch with >= 2 edges itself (>= 4 path vertices): a
    2-edge path can fail to be a branch at a degree-2 end while its 1-edge
    image still is one.
    """
    lg = line_graph(g).graph
    g_branches = {b.vertices for b in branches(g) if not b.is_closed}
    g_branches |= {tuple(reversed(b)) for b in g_branches}
    l_branches = {b.vertices for b in branches(lg) if not b.is_closed}
    l_branches |= {tuple(reversed(b)) for b in l_branches}
    edge_lookup = {}
    for eid, (u, v) in enumerate(g.edges):
        edge_lookup.setdefault(frozenset((u, v)), eid)
    for path_vertices in brute_simple_paths(g, min_vertices=3):
        eseq = []
        ok = True
        for i in range(len(path_vertices) - 1):
            key = frozenset((path_vertices[i], path_vertices[i + 1]))
            if key not in edge_lookup:
                ok = False
                break
            eseq.append(edge_lookup[key])
        if not ok:
            continue
        in_g = path_vertices in g_branches
        in_l = tuple(eseq) in l_branches
        if in_g and not in_l:
            return False
        if len(path_vertices) >= 4 and in_g != in_l:
            return False
    return True


def test_branch_correspondence_on_corpus(corpus5):
    for g in corpus5:
        if g.edge_count < 2:
            continue
        assert _branch_correspondence_holds(g)


def test_branch_correspondence_named_graphs():
    for g in (fig1(), fig2(2)):
        assert _branch_correspondence_holds(g)


def test_branch_images_are_line_graph_branches(corpus6):
    # Forward direction on the bigger corpus: every open branch with >= 2
    # edges maps onto a branch of the line graph.
    for g in corpus6:
        if g.edge_count < 2:
            continue
        lg = line_graph(g).graph
        l_branches = {b.vertices for b in branches(lg) if not b.is_closed}
        l_branches |= {tuple(reversed(b)) for b in l_branches}
        for b in branches(g):
            if b.is_closed or b.length < 2:
                continue
            assert tuple(b.edge_ids) in l_branches


def test_witness_monotonicity_and_containment_on_corpus(corpus5):
    for g in corpus5:
        if not is_connected(g):
            continue
        for k in (1, 2):
            eu = find_witness(g, k, VARIANT_EU)
            eup = find_witness(g, k, VARIANT_EUP)
            assert not isinstance(eu, Unknown) and not isinstance(eup, Unknown)
            if eu is not None:
                # Containment: an EU member is an EUP member.
                assert check_conditions(g, eu, k, VARIANT_EUP).overall
                assert eup is not None
                # Monotonicity: a witness stays a witness as k grows.
                assert check_conditions(g, eu, k + 1, VARIANT_EU).overall
            if eup is not None:
                assert check_conditions(g, eup, k + 1, VARIANT_EUP).overall


def test_lifts_verify_across_corpus(corpus6_3e):
    for g in corpus6_3e:
        lg = line_graph(g).graph
        t = find_dominating_trail(g, closed=False)
        if t is not None and not isinstance(t, Unknown):
            lifted = lift_trail_to_path(g, t)
            assert is_hamiltonian_path(lg, lifted.vertices)
        ct = find_dominating_trail(g, closed=True)
        if ct is not None and not isinstance(ct, Unknown):
            lifted = lift_closed_trail_to_cycle(g, ct)
            assert is_hamiltonian_cycle(lg, lifted.vertices[:-1])


@settings(deadline=None, max_examples=50)
@given(connected_multigraphs(max_vertices=6, max_extra_edges=5))
def test_line_graph_claw_free_property(g):
    if g.edge_count == 0:
        return
    assert not has_claw(line_graph(g).graph)
