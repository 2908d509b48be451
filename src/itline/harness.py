"""Corpus enumeration, theorem-verification campaigns, and report emission.

Campaigns compute a claim's two sides independently for every corpus graph
and report agreements, mismatches (fatal: the CLI exits nonzero), and
Unknowns (always surfaced, never dropped).  Records are keyed and sorted by a
canonical graph id, so reports are deterministic for a given corpus and
configuration regardless of worker count.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations
from typing import Callable, Iterable, Iterator

from .budget import Unknown, default_node_budget
from .eup import (
    VARIANT_EU,
    VARIANT_EUP,
    canonical_candidate,
    check_conditions,
    find_witness,
)
from .families import fig2, fig3, fig4b
from .graphcore import (
    InputError,
    MultiGraph,
    _canonical_code,
    bfs_distances,
    graph6_from_mask,
    graph_from_mask,
    mask_members,
)
from .hamilton import has_hamiltonian_cycle, has_hamiltonian_path
from .indices import (
    PathHasNoIndexError,
    bound_thm_b1,
    bound_thm_b2,
    compute_bounds,
    d3_doublestar,
    delta_prime,
    hamiltonian_index,
    hamiltonian_path_index,
)
from .linegraph import CapExceededError, EdgelessGraphError, iterated_line_graph, line_graph
from .structure import branches, find_dominating_trail, max_trail

ENUMERATION_VERTEX_LIMIT = 7

#: The main campaign confirms a dominating-trail ground truth with the direct
#: oracle only on L^n(G) of at most this many vertices.  Kept at 20, the cap
#: its reports were first written with, so that main-campaign records
#: (``cross_check`` agree or skipped) stay unchanged.
CROSS_CHECK_MAX_VERTICES = 20


# ---------------------------------------------------------------------------
# Canonical forms and enumeration


def canonical_key(g: MultiGraph) -> tuple[int, int]:
    """Canonical (n, adjacency-bitmask) for a simple graph."""
    base, code = _canonical_code(g.vertex_count, g.edges)
    if base != 2:
        raise InputError("canonical_key is defined for simple graphs only")
    return (g.vertex_count, code)


def graph_id(g: MultiGraph) -> str:
    """Isomorphism-invariant identifier: graph6 of the canonical form when
    simple, a digest of the canonical edge code for a multigraph.

    The code is ``g.canonical_code``, computed once per graph object and
    cached on it, so campaigns that share a graph compute its id once.
    """
    base, code = g.canonical_code
    if base == 2:
        # The simple code is the canonical adjacency bitmask, in graph6's bit order.
        return graph6_from_mask(g.vertex_count, code)
    import hashlib  # on first use: it maps OpenSSL, ~4 MB of resident memory

    digest = hashlib.sha256(f"{base} {code}".encode()).hexdigest()[:10]
    return f"multi-n{g.vertex_count}-m{g.edge_count}-{digest}"


def _connected_pairs(n: int, chosen: tuple[tuple[int, int], ...]) -> bool:
    # A union-find of its own rather than graphcore's flood: it runs on every
    # labeled edge set, so its speed sets how many enumeration rounds fit
    # into a benchmark run and with that the run's peak memory.  ROADMAP
    # item 1 deletes it together with the labeled loop.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    comps = n
    for u, v in chosen:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            comps -= 1
    return comps == 1


def enumerate_connected_graphs(
    n_vertices: int, *, max_edges: int | None = None
) -> Iterator[MultiGraph]:
    """Connected simple graphs on exactly ``n_vertices`` vertices, one per class.

    Labeled enumeration with canonical dedup; limited to 7 vertices (the
    labeled space beyond that is out of desk range).
    """
    n = n_vertices
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if n > ENUMERATION_VERTEX_LIMIT:
        raise InputError(
            f"labeled enumeration supports up to {ENUMERATION_VERTEX_LIMIT} vertices, got {n}"
        )
    if n == 1:
        yield MultiGraph(1, ())
        return
    all_pairs = list(combinations(range(n), 2))
    top = len(all_pairs) if max_edges is None else min(max_edges, len(all_pairs))
    seen: set[tuple[int, int]] = set()
    for m in range(n - 1, top + 1):
        for chosen in combinations(all_pairs, m):
            if not _connected_pairs(n, chosen):
                continue
            key = canonical_key(MultiGraph(n, chosen))
            if key in seen:
                continue
            seen.add(key)
            yield graph_from_mask(*key)


def enumerate_trees(n: int) -> list[MultiGraph]:
    """All trees on ``n`` vertices up to isomorphism, in canonical form.

    Leaf augmentation: every tree on n >= 2 vertices has a leaf, so joining
    a new vertex to each vertex of each tree on n-1 vertices reaches every
    tree on n, and ``canonical_key`` drops the repeats.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    keys = [(1, 0)]
    for size in range(2, n + 1):
        grown: dict[tuple[int, int], None] = {}
        for key in keys:
            edges = graph_from_mask(*key).edges
            for v in range(size - 1):
                grown[canonical_key(MultiGraph(size, edges + ((v, size - 1),)))] = None
        keys = list(grown)
    return [graph_from_mask(*key) for key in keys]


def corpus_graphs(max_vertices: int) -> list[MultiGraph]:
    """Connected simple graphs with 1..max_vertices vertices, one per class."""
    if max_vertices < 1:
        raise InputError(f"need max_vertices >= 1, got {max_vertices}")
    if max_vertices > ENUMERATION_VERTEX_LIMIT:
        raise InputError(
            f"labeled enumeration supports up to {ENUMERATION_VERTEX_LIMIT} vertices, "
            f"got {max_vertices}"
        )
    out = []
    for n in range(1, max_vertices + 1):
        out.extend(enumerate_connected_graphs(n))
    return out


def corpus_by_edge_cap(max_edges: int) -> list[MultiGraph]:
    """All connected simple graphs with at most ``max_edges`` edges.

    A connected graph on n vertices needs n-1 edges, so vertex counts run up
    to max_edges + 1, and that last size holds only trees.
    """
    if max_edges < 0:
        raise InputError(f"need max_edges >= 0, got {max_edges}")
    if max_edges > ENUMERATION_VERTEX_LIMIT:
        # Beyond this the sizes past the labeled-enumeration limit would
        # include non-trees, which we cannot enumerate.
        raise InputError(
            f"edge caps beyond {ENUMERATION_VERTEX_LIMIT} are out of range"
        )
    out = []
    for n in range(1, max_edges + 1):
        out.extend(enumerate_connected_graphs(n, max_edges=max_edges))
    out.extend(enumerate_trees(max_edges + 1))
    return out


# ---------------------------------------------------------------------------
# Campaign reports


@dataclass
class CampaignReport:
    """Per-graph records plus roll-up counts; deterministic given corpus and config."""

    name: str
    params: dict
    records: list[dict] = field(default_factory=list)

    def finalize(self) -> "CampaignReport":
        self.records.sort(key=lambda r: (r.get("graph", ""), r.get("claim", "")))
        return self

    @property
    def agreements(self) -> int:
        return sum(1 for r in self.records if r.get("agree") is True)

    @property
    def mismatches(self) -> int:
        return sum(1 for r in self.records if r.get("agree") is False)

    @property
    def unknowns(self) -> int:
        return sum(1 for r in self.records if r.get("unknown"))

    @property
    def ok(self) -> bool:
        return self.mismatches == 0

    def summary(self) -> dict:
        return {
            "campaign": self.name,
            "params": self.params,
            "records": len(self.records),
            "agreements": self.agreements,
            "mismatches": self.mismatches,
            "unknowns": self.unknowns,
            "ok": self.ok,
        }

    def json_lines(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records) + "\n"

    def summary_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["campaign", "records", "agreements", "mismatches", "unknowns", "ok"])
        writer.writerow(
            [self.name, len(self.records), self.agreements, self.mismatches,
             self.unknowns, self.ok]
        )
        return buf.getvalue()


def _record(g: MultiGraph, fields: dict, agree: bool | None, *results) -> dict:
    """Record of ``g``: its id and size, ``fields`` and ``agree``.  The first
    Unknown among ``results`` (in search order) is reported and sets ``agree`` to None."""
    rec = {"graph": graph_id(g), "n_vertices": g.vertex_count, "m_edges": g.edge_count}
    rec.update(fields)
    for result in results:
        if isinstance(result, Unknown):
            rec["unknown"] = result.to_dict()
            agree = None
            break
    rec["agree"] = agree
    return rec


def _campaign(name: str, params: dict, record: Callable[..., dict],
              corpus: Iterable[MultiGraph], workers: int, node_budget: int | None,
              time_limit: float | None) -> CampaignReport:
    """``record(g, node_budget=, time_limit=)`` for every corpus graph; a None
    ``node_budget`` reads ``ITLINE_BUDGET``, once per campaign."""
    node_budget = default_node_budget() if node_budget is None else node_budget
    fn = partial(record, node_budget=node_budget, time_limit=time_limit)
    graphs = list(corpus)
    if workers <= 1:
        records = [fn(g) for g in graphs]
    else:
        from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays for it

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(fn, graphs))
    return CampaignReport(name, params, records).finalize()


# ---------------------------------------------------------------------------
# Campaign: witness nonemptiness vs iterated traceability


def _traceable_truth(
    g: MultiGraph, n: int, node_budget: int | None, time_limit: float | None
) -> tuple[bool | None, str, Unknown | None, MultiGraph | None]:
    """Ground truth for "the n-th iterated line graph is traceable".

    Route: build level n-1 with ``iterated_line_graph`` at its default cap
    and search it for a dominating trail (one final line-graph step is
    equivalent to that).  Tiny intermediate graphs fall back to the direct
    oracle on level n; an edgeless level before n is ``degenerate-tiny``,
    and a level over the cap gives an Unknown.  Returns (value, route,
    unknown, the level n-1 it searched a trail on, if any).
    """
    try:
        base = g if n == 1 else iterated_line_graph(g, n - 1)
    except EdgelessGraphError:
        base = None
    except CapExceededError as exc:
        # Level n-1 has over 5,000 vertices, so at least 3 edges: the trail route.
        return None, "dominating-trail", Unknown("iterated_line_graph", 0, str(exc)), None
    if base is None or base.edge_count == 0:
        # A level up to n-1 is a single vertex; the next line graph does not
        # exist, and a 1-vertex graph is trivially traceable already.
        return True, "degenerate-tiny", None, None
    if base.edge_count < 3:
        final = line_graph(base).graph
        answer = has_hamiltonian_path(final, node_budget=node_budget, time_limit=time_limit)
        if isinstance(answer, Unknown):
            return None, "direct-oracle", answer, None
        return answer.value, "direct-oracle", None, None
    trail = find_dominating_trail(
        base, closed=False, node_budget=node_budget, time_limit=time_limit
    )
    if isinstance(trail, Unknown):
        return None, "dominating-trail", trail, base
    return trail is not None, "dominating-trail", None, base


def _main_record(
    g: MultiGraph,
    n: int,
    node_budget: int,
    time_limit: float | None,
    cross_budget: int,
) -> dict:
    witness = find_witness(g, n, VARIANT_EUP, node_budget=node_budget, time_limit=time_limit)
    found = None if isinstance(witness, Unknown) else witness is not None
    truth, route, truth_unknown, base = _traceable_truth(g, n, node_budget, time_limit)
    # Opportunistic direct cross-check of a dominating-trail truth, on
    # L^n(G) = L(base) when it has few enough vertices (one per edge of
    # base).  A direct-oracle truth already is that check.  It always runs
    # on the default budget, ``cross_budget``, whatever ``node_budget`` is.
    cross_check = "skipped"
    if base is not None and truth is not None and base.edge_count <= CROSS_CHECK_MAX_VERTICES:
        direct = has_hamiltonian_path(line_graph(base).graph, node_budget=cross_budget)
        if not isinstance(direct, Unknown):
            cross_check = "agree" if direct.value == truth else "conflict"
    fields = {"witness_found": found, "iterated_traceable": truth,
              "truth_route": route, "cross_check": cross_check}
    return _record(g, fields, found == truth and cross_check != "conflict",
                   witness, truth_unknown)


def verify_theorem_main(
    corpus: Iterable[MultiGraph],
    n: int = 2,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Witness nonemptiness at level n vs traceability of the n-th line graph.

    The equivalence holds for connected graphs with at least three edges and
    n >= 2; running with n = 1 demonstrates where it breaks down.
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    default = default_node_budget()
    record = partial(_main_record, n=n, cross_budget=default)
    return _campaign("main", {"n": n}, record, corpus, workers,
                     default if node_budget is None else node_budget, time_limit)


def _induction_record(
    g: MultiGraph, k: int, node_budget: int | None, time_limit: float | None
) -> dict:
    if g.edge_count < 2:
        return _record(g, {"skipped": "line graph has fewer than two vertices"}, None)
    lhs = find_witness(line_graph(g).graph, k, VARIANT_EUP,
                       node_budget=node_budget, time_limit=time_limit)
    rhs = find_witness(g, k + 1, VARIANT_EUP, node_budget=node_budget, time_limit=time_limit)
    on_line_graph = None if isinstance(lhs, Unknown) else lhs is not None
    on_base_graph = None if isinstance(rhs, Unknown) else rhs is not None
    fields = {"line_graph_witness": on_line_graph, "base_graph_witness": on_base_graph}
    return _record(g, fields, on_line_graph == on_base_graph, lhs, rhs)


def verify_theorem_induction(
    corpus: Iterable[MultiGraph],
    k: int = 2,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Witness at level k on the line graph vs witness at level k+1 on the graph.

    Graphs with fewer than two edges are recorded as skipped: their line
    graphs degenerate to a point, where the coverage condition can never be
    met even though the 1-edge graph itself still has witnesses.
    """
    if k < 1:
        raise InputError(f"k must be >= 1, got {k}")
    return _campaign("induction", {"k": k}, partial(_induction_record, k=k), corpus,
                     workers, node_budget, time_limit)


# ---------------------------------------------------------------------------
# Campaign: bounds and exact indices


def _bounds_record(
    g: MultiGraph, node_budget: int | None, time_limit: float | None
) -> dict:
    hp = hamiltonian_path_index(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(hp, Unknown):
        fields: dict = {"hp": None}
    else:
        fields = {"hp": hp.value, "hp_method": hp.method}
    try:
        h = hamiltonian_index(g, node_budget=node_budget, time_limit=time_limit)
        fields["h"] = None if isinstance(h, Unknown) else h.value
    except PathHasNoIndexError:
        h = None
        fields["h"] = None
        fields["h_defined"] = False
    bounds = compute_bounds(g, node_budget=node_budget, time_limit=time_limit).to_dict()
    fields["bounds"] = bounds
    violations = []
    if fields["hp"] is not None:
        for name in ("thm_b1", "cor1", "cor2", "thm_b2"):
            value = bounds[name]
            if value is not None and fields["hp"] > value:
                violations.append(f"hp={fields['hp']} exceeds {name}={value}")
        if fields["h"] is not None and fields["hp"] > fields["h"]:
            violations.append(f"hp={fields['hp']} exceeds h={fields['h']}")
    fields["violations"] = violations
    return _record(g, fields, not violations, hp, h)


def run_bounds_campaign(
    corpus: Iterable[MultiGraph],
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Exact indices vs every upper bound on every corpus graph."""
    return _campaign("bounds", {}, _bounds_record, corpus, workers, node_budget, time_limit)


# ---------------------------------------------------------------------------
# Campaign: oracle equivalences through one line-graph step


def _equivalence_record(
    g: MultiGraph, node_budget: int | None, time_limit: float | None
) -> dict:
    if not g.edge_count:
        return _record(g, {"skipped": "line graph of an edgeless graph is undefined"}, None)
    lg = line_graph(g).graph
    fields = {}
    searches = []
    agree = True
    for label, oracle, closed in (
        ("traceable", has_hamiltonian_path, False),
        ("hamiltonian", has_hamiltonian_cycle, True),
    ):
        direct = oracle(lg, node_budget=node_budget, time_limit=time_limit)
        trail = find_dominating_trail(
            g, closed=closed, node_budget=node_budget, time_limit=time_limit
        )
        searches += (direct, trail)
        if not isinstance(direct, Unknown) and not isinstance(trail, Unknown):
            fields[f"line_graph_{label}"] = direct.value
            fields[f"dominating_trail_{'closed' if closed else 'open'}"] = trail is not None
            agree = agree and direct.value == (trail is not None)
    return _record(g, fields, agree, *searches)


def run_equivalence_campaign(
    corpus: Iterable[MultiGraph],
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Line-graph hamiltonicity oracles vs dominating-trail search on the base
    graph; an edgeless graph, which has no line graph, is recorded as skipped."""
    return _campaign("equivalence", {}, _equivalence_record, corpus, workers,
                     node_budget, time_limit)


# ---------------------------------------------------------------------------
# Campaign: the named families and their published statistics


def two_longest_branch_candidate(g: MultiGraph):
    """Witness recipe: join the two branches richest in low-degree vertices.

    Picks the two branches with the most degree-<=2 vertices, connects them
    with a shortest path when they do not already meet, and completes the
    candidate with the mandatory isolated vertices.
    """
    blist = branches(g)
    if len(blist) < 2:
        raise InputError("recipe needs at least two branches")
    inc, ends, nbr = g.incidence, g.ends, g.neighbor_masks

    def low_count(b) -> int:
        return sum(1 for v in set(b.vertices) if len(inc[v]) <= 2)

    ranked = sorted(enumerate(blist), key=lambda ib: (-low_count(ib[1]), ib[0]))
    b1, b2 = ranked[0][1], ranked[1][1]
    edge_ids = set(b1.edge_ids) | set(b2.edge_ids)
    if not set(b1.vertices) & set(b2.vertices):
        # Shortest connecting path, realized as edges.
        dist_maps = {v: bfs_distances(g, v) for v in set(b1.vertices)}
        src, dst = min(
            ((u, w) for u in set(b1.vertices) for w in set(b2.vertices)),
            key=lambda uw: dist_maps[uw[0]][uw[1]],
        )
        dist = dist_maps[src]
        cur = dst
        while cur != src:
            step = min(w for w in mask_members(nbr[cur]) if dist[w] == dist[cur] - 1)
            eid = next(e for e in inc[cur] if ends[e] ^ cur == step)
            edge_ids.add(eid)
            cur = step
    return canonical_candidate(g, edge_ids)


def run_family_suite(
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> CampaignReport:
    """Check the published sharpness statistics of the named families."""
    node_budget = default_node_budget() if node_budget is None else node_budget
    records: list[dict] = []

    def claim(family: str, name: str, expected, actual) -> None:
        unknown = isinstance(actual, Unknown)
        records.append(
            {
                "graph": family,
                "claim": name,
                "expected": expected,
                "actual": None if unknown else actual,
                "agree": None if unknown else expected == actual,
                **({"unknown": actual.to_dict()} if unknown else {}),
            }
        )

    def index_value(result) -> int | Unknown:
        return result if isinstance(result, Unknown) else result.value

    for k in (1, 2, 3):
        g = fig2(k)
        fam = f"fig2(k={k})"
        claim(fam, "hp == k", k, index_value(
            hamiltonian_path_index(g, node_budget=node_budget, time_limit=time_limit)))
        claim(fam, "h == k", k, index_value(
            hamiltonian_index(g, node_budget=node_budget, time_limit=time_limit)))
        if k >= 2:
            cycle_edges = [
                eid for eid, (u, v) in enumerate(g.edges) if u < 6 and v < 6
            ]
            hexagon = canonical_candidate(g, cycle_edges)
            claim(fam, "hexagon passes EU at k", True,
                  check_conditions(g, hexagon, k, VARIANT_EU).overall)
            below = find_witness(g, k - 1, VARIANT_EUP,
                                 node_budget=node_budget, time_limit=time_limit)
            claim(fam, "no witness at k-1", True,
                  below if isinstance(below, Unknown) else below is None)

    for s, t in ((1, 6), (2, 7)):
        g = fig3(s, t)
        fam = f"fig3(s={s},t={t})"
        mt = max_trail(g, node_budget=node_budget, time_limit=time_limit)
        claim(fam, "mt_star == 2t+1", 2 * t + 1,
              mt if isinstance(mt, Unknown) else mt.mt_star)
        claim(fam, "d3_star == 4", 4, mt if isinstance(mt, Unknown) else mt.d3_star)
        claim(fam, "trail bound == s+2", s + 2,
              bound_thm_b1(g, node_budget=node_budget, time_limit=time_limit))
        claim(fam, "hp == s+2", s + 2, index_value(
            hamiltonian_path_index(g, node_budget=node_budget, time_limit=time_limit)))

    for s in (1, 2, 3):
        g = fig4b(s)
        fam = f"fig4b(s={s})"
        claim(fam, "delta_prime == 6", 6, delta_prime(g))
        claim(fam, "d3_doublestar == 13", 13, d3_doublestar(g))
        claim(fam, "neighbor bound == s+2", s + 2, bound_thm_b2(g))
        recipe = two_longest_branch_candidate(g)
        claim(fam, "recipe witness passes at s+2", True,
              check_conditions(g, recipe, s + 2, VARIANT_EUP).overall)
        below = find_witness(g, s + 1, VARIANT_EUP,
                             node_budget=node_budget, time_limit=time_limit)
        claim(fam, "no witness at s+1", True,
              below if isinstance(below, Unknown) else below is None)

    return CampaignReport("families", {}, records).finalize()
