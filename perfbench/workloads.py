"""The user flows the benchmark times, and the checks of their outputs.

A workload is prepared once from the seed (set-up), then run in whole rounds.
A round is the same list of operations every time: one campaign record per
corpus graph, or one family query per published claim.  Each operation is
timed on its own, through the ``call`` that the round is given (``timed``
unless the run passes another); a round's wall time is its corpus
enumeration plus its operations.  Outputs are checked after the timed
rounds, by ``checks``.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

# Functions are looked up on their modules at call time, so that the
# tracer's wrappers are the ones called.
from itline import eup, families, harness, indices, structure
from itline.budget import Unknown
from itline.graphcore import MultiGraph

import checks


@dataclass
class Item:
    """One timed operation and what the checks need to judge it."""

    kind: str
    seconds: float
    value: object = None
    error: str | None = None
    graph: MultiGraph | None = None
    label: str = ""
    expected: object = None

    def describe(self) -> str:
        return self.label or f"{self.kind} record of the graph with edges {list(self.graph.edges)}"


@dataclass
class Round:
    enumerate_s: float = 0.0
    corpus: list = field(default_factory=list)
    items: list[Item] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.enumerate_s + sum(item.seconds for item in self.items)


def timed(kind: str, fn, *args, graph=None, label="", expected=None) -> Item:
    """Run one operation; an exception is recorded as the operation's failure."""
    start = time.perf_counter()
    try:
        value, error = fn(*args), None
    except Exception as exc:  # counted as a failed operation, never fatal
        value, error = None, f"{type(exc).__name__}: {exc}"
    return Item(kind, time.perf_counter() - start, value, error, graph, label, expected)


def relabel(g: MultiGraph, rng: random.Random) -> MultiGraph:
    """Isomorphic copy under a random vertex permutation.

    Edge ``j`` of the copy is edge ``j`` of ``g`` with its ends renamed.  Edge
    ids keep their order because ``find_witness`` breaks ties between branches
    by edge id: under shuffled ids its node count on fig4b(1) at k=2 ranges
    over 0.65M-2.0M, which would make the run time depend on the seed more
    than on the code.
    """
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return MultiGraph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges))


# ---------------------------------------------------------------------------
# Campaign workloads


class CampaignsV6:
    """corpus_graphs(6), then the main (n=2), equivalence and bounds campaigns."""

    name = "campaigns-v6"

    def prepare(self, seed: int) -> int:
        return seed

    def run_round(self, seed: int, call=timed) -> Round:
        enum = call("enumerate", harness.corpus_graphs, 6)
        if enum.error is not None:
            raise RuntimeError(f"corpus_graphs(6) failed: {enum.error}")
        corpus = enum.value
        out = Round(enum.seconds, corpus)
        rng = random.Random(seed)
        graphs = [relabel(g, rng) for g in corpus]
        big = [g for g in graphs if g.edge_count >= 3]
        ops = ([("main", harness.verify_theorem_main, g, 2) for g in big]
               + [("equivalence", harness.run_equivalence_campaign, g) for g in big]
               + [("bounds", harness.run_bounds_campaign, g) for g in graphs])
        # The three campaigns' records are interleaved, so that the cheap
        # records, which set the median, are spread over the whole round
        # instead of sitting in its last seconds.
        rng.shuffle(ops)
        out.items += [call(kind, campaign, [g], *args, graph=g)
                      for kind, campaign, g, *args in ops]
        return out

    def check_corpus(self, corpus: list) -> str | None:
        ours = [checks.nx_graph(g.vertex_count, g.edges) for g in corpus]
        counts = [sum(1 for g in corpus if g.vertex_count == n) for n in range(1, 7)]
        if counts != [1, 1, 2, 6, 21, 112]:  # OEIS A001349
            return f"corpus counts by order {counts}, expected [1, 1, 2, 6, 21, 112]"
        return checks.same_up_to_isomorphism(ours, checks.atlas_connected(6))


# ---------------------------------------------------------------------------
# Family queries


def _value(result):
    return result if isinstance(result, Unknown) else result.value


def _hp(g: MultiGraph):
    return _value(indices.hamiltonian_path_index(g))


def _h(g: MultiGraph):
    return _value(indices.hamiltonian_index(g))


def _no_witness(g: MultiGraph, k: int):
    found = eup.find_witness(g, k, "eup")
    return found if isinstance(found, Unknown) else found is None


def _hexagon_passes(g: MultiGraph, hexagon: list[int], k: int) -> bool:
    return eup.check_conditions(g, eup.canonical_candidate(g, hexagon), k, "eu").overall


def _recipe_passes(g: MultiGraph, k: int) -> bool:
    return eup.check_conditions(g, harness.two_longest_branch_candidate(g), k, "eup").overall


def _mt(field_name: str):
    def query(g: MultiGraph):
        mt = structure.max_trail(g)
        return mt if isinstance(mt, Unknown) else getattr(mt, field_name)
    return query


def _indices(name: str):
    return lambda g: getattr(indices, name)(g)


def family_claims(rng: random.Random) -> list[tuple[str, str, object, object, tuple]]:
    """(family, claim, expected, query, args) for every claim of the families check.

    Each family graph is relabeled first; the claims keep the order of
    ``run_family_suite``.  The expected values are the
    paper's: hp = h = k on fig2(k) with no EUP witness at k-1; mt* = 2t+1,
    d3* = 4 and the trail bound and hp equal to s+2 on fig3(s, t); delta' = 6,
    d3** = 13 and the neighbor bound equal to s+2 on fig4b(s), with no
    witness at s+1 for s = 1.
    """
    out = []
    for k in (1, 2, 3):
        g = relabel(families.fig2(k), rng)
        fam = f"fig2(k={k})"
        out.append((fam, "hp == k", k, _hp, (g,)))
        out.append((fam, "h == k", k, _h, (g,)))
        if k >= 2:
            hexagon = [j for j, e in enumerate(families.fig2(k).edges) if max(e) < 6]
            out.append((fam, "hexagon passes EU at k", True, _hexagon_passes, (g, hexagon, k)))
            out.append((fam, "no witness at k-1", True, _no_witness, (g, k - 1)))
    for s, t in ((1, 6), (2, 7)):
        g = relabel(families.fig3(s, t), rng)
        fam = f"fig3(s={s},t={t})"
        out.append((fam, "mt_star == 2t+1", 2 * t + 1, _mt("mt_star"), (g,)))
        out.append((fam, "d3_star == 4", 4, _mt("d3_star"), (g,)))
        out.append((fam, "trail bound == s+2", s + 2, _indices("bound_thm_b1"), (g,)))
        out.append((fam, "hp == s+2", s + 2, _hp, (g,)))
    for s in (1, 2):
        g = relabel(families.fig4b(s), rng)
        fam = f"fig4b(s={s})"
        out.append((fam, "delta_prime == 6", 6, _indices("delta_prime"), (g,)))
        out.append((fam, "d3_doublestar == 13", 13, _indices("d3_doublestar"), (g,)))
        out.append((fam, "neighbor bound == s+2", s + 2, _indices("bound_thm_b2"), (g,)))
        out.append((fam, "recipe witness passes at s+2", True, _recipe_passes, (g, s + 2)))
        if s == 1:
            out.append((fam, "no witness at s+1", True, _no_witness, (g, s + 1)))
    return out


class Families:
    """The queries of ``verify --theorem families``, one timed item per claim."""

    name = "families"

    def prepare(self, seed: int) -> dict:
        return {"seed": seed, "claims": family_claims(random.Random(seed))}

    def run_round(self, state: dict, call=timed) -> Round:
        # Later rounds rebuild the same relabeled graphs, so that no graph
        # arrives with its cached adjacency already built.
        claims = state.pop("claims", None) or family_claims(random.Random(state["seed"]))
        out = Round()
        for fam, claim, expected, query, args in claims:
            out.items.append(call("claim", query, *args, label=f"{fam}: {claim}",
                                  expected=expected))
        return out

    def check_corpus(self, corpus: list) -> str | None:
        return None


WORKLOADS = {w.name: w for w in (CampaignsV6(), Families())}


# ---------------------------------------------------------------------------
# Per-operation checks


def item_failure(item: Item, unchecked: Counter) -> str | None:
    """Why an operation failed, or None: exception, Unknown, mismatch or failed check.

    An independent search that passes its node cap is counted in ``unchecked``.
    """
    if item.error is not None:
        return item.error
    if item.kind == "claim":
        if isinstance(item.value, Unknown):
            return f"Unknown: {item.value.detail}"
        if item.value != item.expected:
            return f"answer {item.value!r}, the paper states {item.expected!r}"
        return None
    report = item.value
    if len(report.records) != 1 or report.mismatches or report.unknowns:
        return f"campaign summary {report.summary()}"
    rec = report.records[0]
    g = checks.nx_graph(item.graph.vertex_count, item.graph.edges)
    if item.kind == "main":
        return _compare(rec["iterated_traceable"], checks.line_graph_masks(g, 2), False,
                        "L^2(G) traceable", unchecked)
    if item.kind == "equivalence":
        masks = checks.line_graph_masks(g, 1)
        return (_compare(rec["line_graph_traceable"], masks, False, "L(G) traceable", unchecked)
                or _compare(rec["line_graph_hamiltonian"], masks, True, "L(G) hamiltonian",
                            unchecked))
    if item.kind == "bounds":
        hp = _path_index(g, rec["hp"], unchecked)
        if hp is None:
            return None
        if hp != rec["hp"]:
            return f"hp: itline says {rec['hp']}, independent search says {hp}"
        limits = {name: rec["bounds"][name] for name in ("thm_b1", "cor1", "cor2", "thm_b2")}
        limits["h"] = rec.get("h")
        over = [f"{name}={v}" for name, v in limits.items() if v is not None and hp > v]
        return f"hp={hp} exceeds {', '.join(over)}" if over else None
    return None


def _path_index(g, claimed, unchecked: Counter) -> int | None:
    """The least n with L^n(G) traceable, searched up to ``claimed`` + 1 levels.

    Returns ``claimed`` + 1 when no level up to ``claimed`` is traceable, and
    None when a search passes its cap (counted in ``unchecked``).
    """
    top = claimed if isinstance(claimed, int) else 0
    for n in range(top + 1):
        truth = checks.hamiltonian_search(checks.line_graph_masks(g, n), False)
        if truth is None:
            unchecked[f"L^{n}(G) traceable, for hp"] += 1
            return None
        if truth:
            return n
    return top + 1


def _compare(answer, masks: list[int], cycle: bool, what: str,
             unchecked: Counter) -> str | None:
    truth = checks.hamiltonian_search(masks, cycle)
    if truth is None:
        unchecked[what] += 1
        return None
    if answer is not truth:
        return f"{what}: itline says {answer}, independent search says {truth}"
    return None
