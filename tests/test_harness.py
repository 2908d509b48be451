"""Enumeration, canonical dedup, campaign records, and report plumbing."""

import hashlib
import json
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from itline.budget import Budget, Unknown
from itline.eup import VARIANT_EUP, find_witness
from itline.families import complete, fig2, path, star
from itline.graphcore import InputError, MultiGraph, graph_from_mask, to_graph6
from itline import harness
from itline.hamilton import has_hamiltonian_cycle, has_hamiltonian_path
from itline.harness import (
    CampaignReport,
    _traceable_truth,
    canonical_key,
    corpus_by_edge_cap,
    corpus_graphs,
    enumerate_connected_graphs,
    enumerate_trees,
    graph_id,
    run_bounds_campaign,
    run_equivalence_campaign,
    run_family_suite,
    two_longest_branch_candidate,
    verify_theorem_induction,
    verify_theorem_main,
)
from itline.linegraph import line_graph
from itline.structure import find_dominating_trail, max_trail

from .conftest import relabeled_copy, simple_graphs
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


def test_corpus_beyond_supported_range_fails_before_enumerating(monkeypatch):
    # The vertex limit is checked up front, so an eight-vertex corpus does not
    # first run the labeled loop over every size up to seven.
    requested = []

    def spy(n_vertices, **kwargs):
        requested.append(n_vertices)
        return iter(())

    monkeypatch.setattr(harness, "enumerate_connected_graphs", spy)
    with pytest.raises(InputError, match="got 8"):
        corpus_graphs(8)
    assert requested == []


def test_enumeration_edge_cap():
    got = list(enumerate_connected_graphs(5, max_edges=4))
    # Trees on five vertices only.
    assert len(got) == 3
    assert all(g.edge_count == 4 for g in got)


def test_tree_counts():
    # OEIS A000055.
    counts = ((1, 1), (2, 1), (3, 1), (4, 2), (5, 3), (6, 6), (7, 11), (8, 23), (9, 47))
    for n, expected in counts:
        assert len(enumerate_trees(n)) == expected


def test_trees_match_labeled_enumeration():
    # Dual route: leaf augmentation against the labeled enumeration of
    # connected graphs with n-1 edges, class for class.
    for n in range(1, 8):
        augmented = [canonical_key(g) for g in enumerate_trees(n)]
        labeled = {canonical_key(g) for g in enumerate_connected_graphs(n, max_edges=n - 1)}
        assert len(augmented) == len(set(augmented))
        assert set(augmented) == labeled


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
    assert canonical_key(relabeled_copy(g, rng)) == canonical_key(g)
    assert is_isomorphic(graph_from_mask(*canonical_key(g)), g)


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


def test_graph_id_is_graph6_of_the_canonical_form(corpus6):
    # graph_id encodes the canonical bitmask directly; the long route builds
    # the canonical graph and encodes its edge list.
    rng = random.Random(6)
    for g in corpus6:
        want = to_graph6(graph_from_mask(*canonical_key(g)))
        for _ in range(3):
            assert graph_id(relabeled_copy(g, rng)) == want


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


def test_canonical_code_cache_keeps_graph_identity(corpus5):
    multi = MultiGraph(4, ((0, 1), (1, 0), (1, 2), (2, 3), (3, 1)))
    for g in (*corpus5, multi):
        first = graph_id(g)
        assert graph_id(g) == first
        copy = MultiGraph(g.vertex_count, g.edges)
        assert copy == g and hash(copy) == hash(g)
        assert graph_id(copy) == first
        # Pooled campaigns pickle their graphs, cached code included.
        loaded = pickle.loads(pickle.dumps(g))
        assert vars(loaded)["canonical_code"] == g.canonical_code
        assert graph_id(loaded) == first


# --- campaigns ----------------------------------------------------------------


def _truth(g, n):
    """The main campaign's ground truth, (value, route, unknown), on default budgets."""
    return _traceable_truth(g, n, None, None)[:3]


def test_truth_route_small_line_graphs():
    value, route, unknown = _truth(path(4), 2)
    assert value is True and route == "direct-oracle" and unknown is None
    value, route, unknown = _truth(star(3), 2)
    assert value is True and route == "dominating-trail"
    # L(path(2)) is one vertex: level 1 has no edges, and level 2 does not exist.
    for n in (2, 3):
        assert _truth(path(2), n) == (True, "degenerate-tiny", None)


def test_truth_over_the_line_graph_cap_is_unknown():
    # L^3(K6) has 420 vertices and 5,460 edges, so L^4(K6) is over the cap of
    # 5,000; the answer is an Unknown, not a trail search on 5,460 vertices.
    value, route, unknown = _truth(complete(6), 5)
    assert value is None and route == "dominating-trail"
    assert unknown == Unknown(
        "iterated_line_graph", 0,
        "line-graph iteration stopped at level 4: 5460 vertices exceeds cap 5000",
    )


def test_main_campaign_rejects_a_level_below_one():
    def unread():
        raise AssertionError("the corpus was read")
        yield

    for n in (0, -1):
        with pytest.raises(InputError, match=f"need n >= 1, got {n}"):
            verify_theorem_main(unread(), n)


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


def test_equivalence_record_of_an_edgeless_graph_is_skipped():
    # K1 has no line graph; like the induction campaign's graphs under two
    # edges, it is recorded as skipped, with no agreement either way.
    report = run_equivalence_campaign([MultiGraph(1, ())])
    assert report.ok and report.unknowns == 0
    (rec,) = report.records
    assert rec["skipped"] and rec["agree"] is None


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


def test_records_with_two_unknowns_report_the_first(corpus5):
    # At budget 3 most records run out in more than one search; each still
    # gets a record, which names the first search that ran out.
    corpus = [g for g in corpus5 if g.edge_count >= 3]
    first = {"main": {"find_witness"}, "induction": {"find_witness"},
             "equivalence": {"has_hamiltonian_path", "find_dominating_trail"},
             "bounds": {"hamiltonian_path_index", "hamiltonian_index"}}
    for report in (
        verify_theorem_main(corpus, 2, node_budget=3),
        verify_theorem_induction(corpus, 2, node_budget=3),
        run_equivalence_campaign(corpus, node_budget=3),
        run_bounds_campaign(corpus, node_budget=3),
    ):
        assert report.unknowns > 0 and report.mismatches == 0
        ops = {r["unknown"]["operation"] for r in report.records if "unknown" in r}
        assert ops <= first[report.name]


@pytest.fixture(scope="module")
def corpus5_reports(corpus5):
    """main (n=2), induction (k=2), equivalence and bounds on the <= 5-vertex
    corpus, first at the default budget and then at node_budget=3."""
    big = [g for g in corpus5 if g.edge_count >= 3]
    return [
        report
        for budget in (None, 3)
        for report in (
            verify_theorem_main(big, 2, node_budget=budget),
            verify_theorem_induction(corpus5, 2, node_budget=budget),
            run_equivalence_campaign(big, node_budget=budget),
            run_bounds_campaign(corpus5, node_budget=budget),
        )
    ]


# sha256 of the concatenated JSON lines of the default-budget half of
# corpus5_reports, which has no Unknown: every value, method and witness
# flag, and nothing a starved budget decides.  An exact speed-up leaves it
# alone even where it moves REPORT_DIGEST below.
VALUES_DIGEST = "47a16a3dd82b17d4f802e8c0055192e3d41a2a438e06a233792e507c22a3392a"


def test_values_match_pinned_digest(corpus5_reports):
    values = corpus5_reports[:4]
    assert [(r.agreements, r.unknowns) for r in values] == [(28, 0), (29, 0), (28, 0), (31, 0)]
    blob = "".join(r.json_lines() for r in values).encode()
    assert hashlib.sha256(blob).hexdigest() == VALUES_DIGEST


# sha256 of the concatenated JSON lines of all of corpus5_reports, as the
# campaigns wrote them when each built its records by hand, except that the
# 20 bounds records whose index runs out at level 0 or 1 now name that stage
# and level in their detail, and that at node_budget=3 max_trail on K1,3 and
# K1,4 now finds mt* = 3, since it reads the bridge tree before its walk
# instead of at its first dead end.  The node_budget=3 half also pins where
# each starved search stops and the text of its Unknown.
REPORT_DIGEST = "0893feea8e5482adce1fa00ca05cebb4136ec013a94a372f9f97c26e6eb0b7de"


def test_reports_match_pinned_digest(corpus5_reports):
    assert [(r.agreements, r.unknowns) for r in corpus5_reports] == [
        (28, 0), (29, 0), (28, 0), (31, 0), (0, 28), (0, 29), (2, 26), (10, 21),
    ]
    blob = "".join(r.json_lines() for r in corpus5_reports).encode()
    assert hashlib.sha256(blob).hexdigest() == REPORT_DIGEST


def test_record_searches_expand_pinned_node_totals(monkeypatch, corpus6):
    # The searches a campaign record runs, summed over the <= 6-vertex
    # corpus: each total changes if any one search tree does.  Figures and
    # families have their own node pins; these are the small trees the
    # records are made of.
    spent = [0]
    tick = Budget.tick

    def counted(budget, n=1):
        spent[0] += n
        return tick(budget, n)

    monkeypatch.setattr(Budget, "tick", counted)
    big = [g for g in corpus6 if g.edge_count >= 3]
    searches = {
        "find_witness": (big, lambda g: find_witness(g, 2, VARIANT_EUP)),
        "trail_open": (big, lambda g: find_dominating_trail(g, False)),
        "trail_closed": (big, lambda g: find_dominating_trail(g, True)),
        "trail_open_line_graph": (big, lambda g: find_dominating_trail(line_graph(g).graph)),
        "max_trail": (corpus6, max_trail),
        "oracle_path_line_graph": (big, lambda g: has_hamiltonian_path(line_graph(g).graph)),
        "oracle_cycle_line_graph": (big, lambda g: has_hamiltonian_cycle(line_graph(g).graph)),
    }
    totals = {}
    for name, (graphs, search) in searches.items():
        spent[0] = 0
        for g in graphs:
            assert not isinstance(search(g), Unknown)
        totals[name] = spent[0]
    assert (len(corpus6), len(big)) == (143, 140)
    assert totals == {
        "find_witness": 1253, "trail_open": 662, "trail_closed": 1420,
        "trail_open_line_graph": 1402, "max_trail": 916,
        "oracle_path_line_graph": 969, "oracle_cycle_line_graph": 933,
    }


def test_budget_env_override(monkeypatch):
    from itline.budget import default_node_budget

    monkeypatch.setenv("ITLINE_BUDGET", "12345")
    assert default_node_budget() == 12345
    monkeypatch.setenv("ITLINE_BUDGET", "not-a-number")
    with pytest.raises(ValueError):
        default_node_budget()
    monkeypatch.delenv("ITLINE_BUDGET")
    assert default_node_budget() > 0


def test_reports_ignore_vertex_labels(corpus5):
    rng = random.Random(5)
    relabeled = [relabeled_copy(g, rng) for g in corpus5]
    campaigns = (
        lambda c: verify_theorem_main([g for g in c if g.edge_count >= 3], 2),
        lambda c: run_equivalence_campaign([g for g in c if g.edge_count >= 3]),
        run_bounds_campaign,
    )
    for campaign in campaigns:
        assert campaign(relabeled).json_lines() == campaign(corpus5).json_lines()


def test_budget_env_is_read_once_per_campaign_and_index(monkeypatch, corpus5):
    import itline.budget
    import itline.harness
    import itline.indices
    from itline.indices import hamiltonian_path_index

    reads = []
    real = itline.budget.default_node_budget

    def counted() -> int:
        reads.append(1)
        return real()

    for module in (itline.budget, itline.harness, itline.indices):
        monkeypatch.setattr(module, "default_node_budget", counted)
    corpus = [g for g in corpus5 if g.edge_count >= 3][:6]
    for campaign in (
        lambda: verify_theorem_main(corpus, 2),
        lambda: verify_theorem_induction(corpus, 2),
        lambda: run_equivalence_campaign(corpus),
        lambda: run_bounds_campaign(corpus),
        run_family_suite,
        lambda: hamiltonian_path_index(fig2(2)),  # oracle, trail and witness searches
    ):
        reads.clear()
        campaign()
        assert len(reads) == 1
    # Read once, at the campaign's start, the variable still sets every
    # search's budget.
    monkeypatch.setenv("ITLINE_BUDGET", "3")
    report = verify_theorem_main(corpus, 2)
    assert report.unknowns == len(corpus) and report.mismatches == 0
    bounds = run_bounds_campaign(corpus).json_lines()
    assert bounds == run_bounds_campaign(corpus, node_budget=3).json_lines()
