"""Acceptance suite: one test per exit criterion, each printing a verdict line.

Run standalone with `pytest tests/test_acceptance.py -v -s`.  Criteria with a
stated runtime budget assert it; searches that are allowed to report Unknown
do so explicitly and are never counted as confirmation.
"""

import time
from collections import Counter

import pytest

from itline.budget import Unknown
from itline.eup import VARIANT_EU, VARIANT_EUP, check_conditions, find_witness
from itline.families import fig1, fig2, fig3, fig4b
from itline.graphcore import Trail
from itline.hamilton import (
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    is_hamiltonian_path,
    lift_trail_to_path,
)
from itline.indices import (
    bound_thm_b1,
    bound_thm_b2,
    compute_bounds,
    d3_doublestar,
    delta_prime,
    hamiltonian_index,
    hamiltonian_path_index,
    is_path_graph,
)
from itline.linegraph import line_graph
from itline.structure import dominates, find_dominating_trail, max_trail
from itline.harness import (
    two_longest_branch_candidate,
    verify_theorem_induction,
    verify_theorem_main,
)


def _report(number: int, description: str) -> None:
    print(f"[acceptance] criterion {number} ({description}): PASS")


def test_criterion_1_fig1_exactness():
    start = time.monotonic()
    g = fig1()
    # Exhaustive witness search over all 2^13 canonical candidates (the
    # construction has 13 edges: ten on the path, three at the apex).
    assert g.edge_count == 13
    assert find_witness(g, 1, VARIANT_EUP) is None
    found = find_dominating_trail(g, closed=False)
    assert found is not None and not isinstance(found, Unknown)
    # The full bottom path is the named dominating trail; lift it.
    bottom = Trail(tuple(range(11)), tuple(range(10)), False)
    assert dominates(g, set(bottom.vertices))
    lifted = lift_trail_to_path(g, bottom)
    assert is_hamiltonian_path(line_graph(g).graph, lifted.vertices)
    assert hamiltonian_path_index(g).value == 1
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    _report(1, "fig1 exactness")


def test_criterion_2_main_theorem_level2(corpus6_3e):
    start = time.monotonic()
    assert len(corpus6_3e) == 140
    report = verify_theorem_main(corpus6_3e, 2)
    assert report.mismatches == 0
    assert report.unknowns == 0
    assert report.agreements == 140
    # L^2(G) has at most 20 vertices on 96 graphs.  On 95 of them the direct
    # oracle confirms a dominating-trail ground truth; on the other, the truth
    # already is the direct oracle, and the cross-check is skipped.
    tally = Counter(rec["cross_check"] for rec in report.records)
    assert tally == {"agree": 95, "skipped": 45}
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"criterion 2 took {elapsed:.1f}s"
    _report(2, f"level-2 equivalence on {len(corpus6_3e)} graphs in {elapsed:.0f}s")


@pytest.mark.parametrize("n, agree", ((3, 32), (4, 11)))
def test_criterion_2_main_theorem_higher_levels(corpus6_3e, n, agree):
    # The claim is for every n >= 2.  The truth searches L^(n-1)(G) for a
    # dominating trail; the direct oracle confirms it where L^n(G) has at
    # most 20 vertices.
    report = verify_theorem_main(corpus6_3e, n)
    assert report.mismatches == 0
    assert report.unknowns == 0
    assert report.agreements == 140
    tally = Counter(rec["cross_check"] for rec in report.records)
    assert tally == {"agree": agree, "skipped": 140 - agree}
    _report(2, f"level-{n} equivalence on {len(corpus6_3e)} graphs")


def test_criterion_3_induction_step_k2(corpus_edges7):
    corpus = [g for g in corpus_edges7 if g.edge_count >= 2]
    report = verify_theorem_induction(corpus, 2)
    assert report.mismatches == 0
    assert report.unknowns == 0
    assert report.agreements == len(corpus)
    _report(3, f"induction step at k=2 on {len(corpus)} graphs")


def test_criterion_3_induction_step_k3(corpus6):
    report = verify_theorem_induction(corpus6, 3)
    skipped = [rec for rec in report.records if "skipped" in rec]
    unsettled = [rec for rec in report.records if rec["agree"] is not True and "skipped" not in rec]
    assert not unsettled, f"Unknown or disagreeing records: {unsettled}"
    assert len(skipped) == 2  # K1 and K2 have fewer than two edges
    assert report.agreements == len(corpus6) - 2 == 141
    _report(3, f"induction step at k=3 on {report.agreements} graphs")


def test_criterion_4_trail_reductions(corpus6_3e):
    for g in corpus6_3e:
        lg = line_graph(g).graph
        path_direct = has_hamiltonian_path(lg)
        cycle_direct = has_hamiltonian_cycle(lg)
        open_trail = find_dominating_trail(g, closed=False)
        closed_trail = find_dominating_trail(g, closed=True)
        for r in (path_direct, cycle_direct, open_trail, closed_trail):
            assert not isinstance(r, Unknown)
        assert path_direct.value == (open_trail is not None)
        assert cycle_direct.value == (closed_trail is not None)
    _report(4, f"trail reductions agree on {len(corpus6_3e)} line graphs")


def test_criterion_5_equal_index_family():
    for k in (1, 2, 3):
        g = fig2(k)
        hp = hamiltonian_path_index(g)
        h = hamiltonian_index(g)
        assert hp.value == k and h.value == k
        if k == 1:
            assert hp.method == "dominating-trail" and h.method == "dominating-trail"
        else:
            assert hp.method == "EUP-witness" and h.method == "EU-witness"
            assert g.edge_count <= 15  # exhaustive search space <= 2^15
            below = find_witness(g, k - 1, VARIANT_EUP)
            assert below is None
    _report(5, "equal-index family has hp = h = k for k in 1..3")


def test_criterion_6_trail_bound_sharpness():
    start = time.monotonic()
    for s, t in ((1, 6), (2, 7)):
        g = fig3(s, t)
        mt = max_trail(g)
        assert mt.mt_star == 2 * t + 1
        assert mt.d3_star == 4
        assert bound_thm_b1(g) == s + 2
        below = find_witness(g, s + 1, VARIANT_EUP, time_limit=600)
        assert below is None, f"expected emptiness at k={s + 1}, got {below}"
        hp = hamiltonian_path_index(g, time_limit=600)
        assert not isinstance(hp, Unknown)
        assert hp.value == s + 2
    elapsed = time.monotonic() - start
    assert elapsed < 600, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"trail-bound sharpness family in {elapsed:.0f}s")


def test_criterion_7_neighbor_bound_sharpness():
    for s in (1, 2, 3):
        g = fig4b(s)
        assert delta_prime(g) == 6
        assert d3_doublestar(g) == 13
        assert bound_thm_b2(g) == s + 2
        recipe = two_longest_branch_candidate(g)
        assert check_conditions(g, recipe, s + 2, VARIANT_EUP).overall
        below = find_witness(g, s + 1, VARIANT_EUP)
        assert below is None
    _report(7, "neighbor-bound sharpness family")


def test_criterion_8_bounds_validity(corpus6):
    for g in corpus6:
        hp = hamiltonian_path_index(g)
        assert not isinstance(hp, Unknown)
        rep = compute_bounds(g)
        assert not rep.unknowns
        for bound in (rep.thm_b1, rep.cor1, rep.cor2, rep.thm_b2):
            assert hp.value <= bound, (g.edges, hp.value, rep)
        if not is_path_graph(g):
            h = hamiltonian_index(g)
            assert not isinstance(h, Unknown)
            assert hp.value <= h.value
    _report(8, f"bounds dominate exact indices on {len(corpus6)} graphs")


def test_criterion_9_property_suites_present():
    # The structural suites live in tests/test_properties.py and run
    # standalone; this criterion double-checks their headline facts on the
    # named graphs so the acceptance run is self-contained.
    from itline.linegraph import is_claw_free
    from itline.structure import branches

    g = fig1()
    lg = line_graph(g).graph
    assert is_claw_free(lg)
    l_branches = {b.vertices for b in branches(lg) if not b.is_closed}
    l_branches |= {tuple(reversed(b)) for b in l_branches}
    for b in branches(g):
        if b.length >= 2 and not b.is_closed:
            assert tuple(b.edge_ids) in l_branches
    w = find_witness(g, 2, VARIANT_EUP)
    assert check_conditions(g, w, 3, VARIANT_EUP).overall  # monotone in k
    eu = find_witness(fig2(2), 2, VARIANT_EU)
    assert check_conditions(fig2(2), eu, 2, VARIANT_EUP).overall  # containment
    t = find_dominating_trail(g, closed=False)
    lifted = lift_trail_to_path(g, t)
    assert is_hamiltonian_path(lg, lifted.vertices)
    _report(9, "structural property suites")
