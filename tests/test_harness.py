"""Enumeration, canonical dedup, campaign records, and report plumbing."""

import json

import pytest
from hypothesis import given, strategies as st

from itline.eup import VARIANT_EUP, find_witness
from itline.families import fig2, path, star
from itline.graphcore import InputError, MultiGraph
from itline.harness import (
    CampaignReport,
    canonical_key,
    corpus_by_edge_cap,
    enumerate_connected_graphs,
    enumerate_trees,
    graph_from_key,
    graph_id,
    iterated_traceable_truth,
    run_bounds_campaign,
    run_equivalence_campaign,
    run_family_suite,
    two_longest_branch_candidate,
    verify_theorem_induction,
    verify_theorem_main,
)
from itline.linegraph import line_graph

from .conftest import simple_graphs
from .oracles import is_isomorphic


def test_enumeration_counts_small():
    assert len(list(enumerate_connected_graphs(1))) == 1
    assert len(list(enumerate_connected_graphs(2))) == 1
    assert len(list(enumerate_connected_graphs(3))) == 2
    assert len(list(enumerate_connected_graphs(4))) == 6
    assert len(list(enumerate_connected_graphs(5))) == 21


def test_enumeration_count_six(corpus6):
    assert sum(1 for g in corpus6 if g.vertex_count == 6) == 112
    assert len(corpus6) == 143


def test_enumeration_rejects_large_n():
    with pytest.raises(InputError):
        list(enumerate_connected_graphs(8))


def test_enumeration_edge_cap():
    got = list(enumerate_connected_graphs(5, max_edges=4))
    # Trees on five vertices only.
    assert len(got) == 3
    assert all(g.edge_count == 4 for g in got)


def test_tree_counts():
    for n, expected in ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23)):
        assert len(enumerate_trees(n)) == expected


def test_corpus_by_edge_cap_contents(corpus_edges7):
    # Frozen from the first exhaustive run; the by-size split is
    # 1+1+2+6+17+38+44+23 (trees on eight vertices close the list).
    assert len(corpus_edges7) == 132
    assert all(g.edge_count <= 7 for g in corpus_edges7)
    assert sum(1 for g in corpus_edges7 if g.vertex_count == 8) == 23


def test_pairwise_niso_via_canonical_key(corpus5):
    keys = {canonical_key(g) for g in corpus5}
    assert len(keys) == len(corpus5)


@given(simple_graphs(max_vertices=6), st.randoms(use_true_random=False))
def test_canonical_key_invariant_under_relabeling(g, rng):
    n = g.vertex_count
    perm = list(range(n))
    rng.shuffle(perm)
    relabeled = MultiGraph(n, tuple((perm[u], perm[v]) for u, v in g.edges))
    assert canonical_key(relabeled) == canonical_key(g)
    assert is_isomorphic(graph_from_key(canonical_key(g)), g)


def test_canonical_key_partitions_like_brute_force_isomorphism():
    # Dual route for the signature-restricted minimization: over every
    # labeled connected graph on four vertices, key equality must coincide
    # exactly with permutation-based isomorphism.
    from itertools import combinations

    from itline.graphcore import is_connected

    all_pairs = list(combinations(range(4), 2))
    labeled = []
    for mask in range(1 << 6):
        edges = tuple(p for i, p in enumerate(all_pairs) if mask >> i & 1)
        g = MultiGraph(4, edges)
        if is_connected(g):
            labeled.append(g)
    keys = [canonical_key(g) for g in labeled]
    for i, g1 in enumerate(labeled):
        for j, g2 in enumerate(labeled):
            assert (keys[i] == keys[j]) == is_isomorphic(g1, g2)


def test_graph_id_formats():
    assert graph_id(path(3)) == graph_id(MultiGraph(3, ((2, 1), (1, 0))))
    multi = MultiGraph(2, ((0, 1), (0, 1)))
    assert graph_id(multi).startswith("multi-")


def test_graph_id_is_isomorphism_invariant_for_multigraphs():
    a = MultiGraph(3, ((0, 1), (0, 1), (1, 2)))
    b = MultiGraph(3, ((1, 2), (1, 2), (0, 1)))
    assert graph_id(a) == graph_id(b)
    assert graph_id(a) != graph_id(MultiGraph(3, ((0, 1), (0, 1), (0, 1))))
    tail = MultiGraph(4, ((0, 1), (0, 1), (1, 2), (2, 3)))
    claw = MultiGraph(4, ((0, 1), (0, 1), (1, 2), (1, 3)))
    assert graph_id(tail) != graph_id(claw)


def test_graph_id_of_long_asymmetric_tree():
    # Refinement needs ~20 rounds to tell every vertex of this tree apart;
    # signatures that nested each round inside the next took exponential
    # time to hash.
    tree = MultiGraph(41, path(40).edges + ((2, 40),))
    relabeled = MultiGraph(41, tuple((40 - u, 40 - v) for u, v in reversed(tree.edges)))
    assert graph_id(tree) == graph_id(relabeled)
    assert graph_id(tree) != graph_id(MultiGraph(41, path(40).edges + ((3, 40),)))


# --- campaigns ----------------------------------------------------------------


def test_truth_route_small_line_graphs():
    value, route, unknown = iterated_traceable_truth(path(4), 2)
    assert value is True and route == "direct-oracle" and unknown is None
    value, route, unknown = iterated_traceable_truth(star(3), 2)
    assert value is True and route == "dominating-trail"


def test_main_campaign_tiny_corpus(corpus5):
    corpus = [g for g in corpus5 if g.edge_count >= 3]
    report = verify_theorem_main(corpus, 2)
    assert report.ok
    assert report.unknowns == 0
    assert len(report.records) == len(corpus)


def test_main_campaign_level1_breaks_on_fig1():
    from itline.families import fig1

    report = verify_theorem_main([fig1()], 1)
    assert report.mismatches == 1
    rec = report.records[0]
    assert rec["witness_found"] is False and rec["iterated_traceable"] is True


def test_induction_campaign_small(corpus5):
    corpus = [g for g in corpus5 if 2 <= g.edge_count <= 5]
    report = verify_theorem_induction(corpus, 1)
    assert report.ok and report.unknowns == 0


def test_induction_degeneracy_single_edge_is_skipped():
    # The one-edge graph has witnesses at every level, but its line graph is
    # a bare vertex whose coverage condition can never hold; the campaign
    # records it as skipped rather than as a theorem violation.
    k2 = path(2)
    assert find_witness(k2, 3, VARIANT_EUP) is not None
    assert find_witness(line_graph(k2).graph, 2, VARIANT_EUP) is None
    report = verify_theorem_induction([k2], 2)
    assert report.ok
    assert report.records[0].get("skipped")


def test_bounds_campaign_small(corpus5):
    report = run_bounds_campaign(corpus5)
    assert report.ok and report.unknowns == 0
    assert all(not r["violations"] for r in report.records)


def test_equivalence_campaign_small(corpus5):
    corpus = [g for g in corpus5 if g.edge_count >= 3]
    report = run_equivalence_campaign(corpus)
    assert report.ok and report.unknowns == 0


def test_family_suite_smoke():
    report = run_family_suite()
    assert report.ok and report.unknowns == 0
    assert {r["graph"] for r in report.records} >= {
        "fig2(k=1)", "fig3(s=1,t=6)", "fig4b(s=1)",
    }
    for s in (2, 3):
        below = [r for r in report.records
                 if r["graph"] == f"fig4b(s={s})" and r["claim"] == "no witness at s+1"]
        assert len(below) == 1 and below[0]["agree"] is True


def test_two_longest_branch_candidate_fig2():
    g = fig2(2)
    cand = two_longest_branch_candidate(g)
    # Two pendant arms plus the connecting stretch of the hexagon.
    assert len(cand.edge_ids) >= 4


def test_workers_do_not_change_report(corpus5):
    corpus = [g for g in corpus5 if g.edge_count >= 3][:10]
    seq = verify_theorem_main(corpus, 2, workers=1)
    par = verify_theorem_main(corpus, 2, workers=2)
    assert seq.records == par.records


def test_report_serialization_deterministic(corpus5):
    corpus = [g for g in corpus5 if g.edge_count >= 3][:5]
    rep1 = verify_theorem_main(corpus, 2)
    rep2 = verify_theorem_main(list(reversed(corpus)), 2)
    assert rep1.json_lines() == rep2.json_lines()
    for line in rep1.json_lines().strip().splitlines():
        json.loads(line)
    csv_text = rep1.summary_csv()
    assert csv_text.startswith("campaign,")


def test_report_counts():
    rep = CampaignReport("demo", {}, [
        {"graph": "a", "agree": True},
        {"graph": "b", "agree": False},
        {"graph": "c", "agree": None, "unknown": {"operation": "x"}},
    ])
    assert rep.agreements == 1 and rep.mismatches == 1 and rep.unknowns == 1
    assert not rep.ok


def test_edge_cap_beyond_supported_range_rejected():
    with pytest.raises(InputError):
        corpus_by_edge_cap(8)


def test_campaign_unknowns_name_operation_and_budget(corpus5):
    corpus = [g for g in corpus5 if g.edge_count >= 3][:5]
    report = verify_theorem_main(corpus, 2, node_budget=3)
    assert report.unknowns == len(corpus)
    assert report.mismatches == 0
    for rec in report.records:
        info = rec["unknown"]
        assert info["operation"]
        assert info["budget_spent"] >= 0
        assert rec["graph"]


def test_budget_env_override(monkeypatch):
    from itline.budget import default_node_budget

    monkeypatch.setenv("ITLINE_BUDGET", "12345")
    assert default_node_budget() == 12345
    monkeypatch.setenv("ITLINE_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        default_node_budget()
    monkeypatch.delenv("ITLINE_BUDGET")
    assert default_node_budget() > 0
