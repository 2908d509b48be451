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
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, permutations, product
from typing import Callable, Iterable, Iterator

from .budget import Unknown
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
    bfs_distances,
    to_graph6,
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
from .linegraph import (
    CapExceededError,
    EdgelessGraphError,
    iterated_line_graph,
    line_graph,
)
from .structure import branches, find_dominating_trail, max_trail

ENUMERATION_VERTEX_LIMIT = 7

#: The main campaign confirms its ground truth with the direct oracle only on
#: L^n(G) of at most this many vertices.  Kept at 20, the cap its reports were
#: first written with, so that main-campaign records (``cross_check`` agree or
#: skipped) stay unchanged.
CROSS_CHECK_MAX_VERTICES = 20


# ---------------------------------------------------------------------------
# Canonical forms and enumeration


def _refine_colors(n: int, nbrs: list[list[int]]) -> list:
    """Iterative neighborhood refinement; signatures are isomorphism-invariant.

    ``nbrs[v]`` lists a neighbor once per edge, so parallel edges count.
    Each round's signatures are replaced by their ranks among that round's
    distinct signatures: ranks keep the order, and the next round's tuples
    stay flat instead of nesting every earlier round.
    """
    sig: list = [(len(nbrs[v]),) for v in range(n)]
    while True:
        nxt = [(sig[v], tuple(sorted(sig[w] for w in nbrs[v]))) for v in range(n)]
        distinct = sorted(set(nxt))
        if len(distinct) == len(set(sig)):
            return sig
        rank = {s: r for r, s in enumerate(distinct)}
        sig = [rank[s] for s in nxt]


def _canonical_code(n: int, pairs: list[tuple[int, int]], base: int) -> int:
    """Least edge code over the vertex orderings that sort the refinement signatures.

    An edge on the vertex pair with upper-triangle index i adds base**i to the
    code, where base must exceed every pair's multiplicity, so for a simple
    graph (base 2) the code is the adjacency bitmask.  Restricting to
    signature-respecting orderings keeps the candidate set tiny without
    losing exactness, because the minimum is still realized by an actual
    relabeling of the graph.
    """
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in pairs:
        nbrs[u].append(v)
        nbrs[v].append(u)
    sig = _refine_colors(n, nbrs)
    groups: dict = {}
    for v in range(n):
        groups.setdefault(sig[v], []).append(v)
    ordered_groups = [groups[s] for s in sorted(groups)]
    offsets = []
    pos = 0
    for grp in ordered_groups:
        offsets.append(pos)
        pos += len(grp)
    weight = [[0] * n for _ in range(n)]
    idx = 0
    for j in range(1, n):
        for i in range(j):
            weight[i][j] = weight[j][i] = base**idx
            idx += 1
    best = None
    perm = [0] * n
    for arrangement in product(*(permutations(grp) for grp in ordered_groups)):
        for grp_pos, grp in enumerate(arrangement):
            off = offsets[grp_pos]
            for i, v in enumerate(grp):
                perm[v] = off + i
        code = 0
        for u, v in pairs:
            code += weight[perm[u]][perm[v]]
        if best is None or code < best:
            best = code
    return best if best is not None else 0


def canonical_key(g: MultiGraph) -> tuple[int, int]:
    """Canonical (n, adjacency-bitmask) for a simple graph."""
    pairs = [tuple(sorted(e)) for e in g.edges]
    if len(set(pairs)) != len(pairs):
        raise InputError("canonical_key is defined for simple graphs only")
    return (g.vertex_count, _canonical_code(g.vertex_count, pairs, 2))


def graph_from_key(key: tuple[int, int]) -> MultiGraph:
    n, mask = key
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> idx & 1:
                edges.append((i, j))
            idx += 1
    return MultiGraph(n, tuple(edges))


def graph_id(g: MultiGraph) -> str:
    """Isomorphism-invariant identifier: graph6 of the canonical form when
    simple, a digest of the canonical edge code for a multigraph."""
    pairs = [tuple(sorted(e)) for e in g.edges]
    if len(set(pairs)) == len(pairs):
        return to_graph6(graph_from_key(canonical_key(g)))
    base = 1 + max(Counter(pairs).values())
    code = _canonical_code(g.vertex_count, pairs, base)
    import hashlib  # on first use: it maps OpenSSL, ~4 MB of resident memory

    digest = hashlib.sha256(f"{base} {code}".encode()).hexdigest()[:10]
    return f"multi-n{g.vertex_count}-m{g.edge_count}-{digest}"


def _connected_pairs(n: int, chosen: tuple[tuple[int, int], ...]) -> bool:
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
            yield graph_from_key(key)


def _prufer_tree(n: int, seq: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    import heapq

    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, x))
        degree[leaf] -= 1
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((u, v))
    return tuple(edges)


def _tree_certificate(n: int, edges: tuple[tuple[int, int], ...]) -> str:
    """Canonical string for a labeled tree: encode rooted at the center(s)."""
    nbrs: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    # Peel leaves to find the 1- or 2-vertex center.
    deg = [len(s) for s in nbrs]
    layer = [v for v in range(n) if deg[v] <= 1]
    remaining = n
    alive = [True] * n
    while remaining > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            remaining -= 1
            for w in nbrs[v]:
                if alive[w]:
                    deg[w] -= 1
                    if deg[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = [v for v in range(n) if alive[v]]

    def encode(v: int, parent: int) -> str:
        subs = sorted(encode(w, v) for w in nbrs[v] if w != parent and w != v)
        return "(" + "".join(subs) + ")"

    if len(centers) == 1:
        return "C" + encode(centers[0], -1)
    a, b = centers
    return "B" + "".join(sorted((encode(a, b), encode(b, a))))


def enumerate_trees(n: int) -> list[MultiGraph]:
    """All trees on ``n`` vertices up to isomorphism."""
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    if n == 1:
        return [MultiGraph(1, ())]
    if n == 2:
        return [MultiGraph(2, ((0, 1),))]
    seen: set[str] = set()
    out = []
    for seq in product(range(n), repeat=n - 2):
        edges = _prufer_tree(n, seq)
        cert = _tree_certificate(n, edges)
        if cert in seen:
            continue
        seen.add(cert)
        out.append(MultiGraph(n, edges))
    return out


def corpus_graphs(
    max_vertices: int, *, min_edges: int = 0, max_edges: int | None = None
) -> list[MultiGraph]:
    """Connected simple graphs with 1..max_vertices vertices, one per class."""
    out = []
    for n in range(1, max_vertices + 1):
        for g in enumerate_connected_graphs(n, max_edges=max_edges):
            if g.edge_count >= min_edges:
                out.append(g)
    return out


def corpus_by_edge_cap(max_edges: int, *, min_edges: int = 0) -> list[MultiGraph]:
    """All connected simple graphs with at most ``max_edges`` edges.

    A connected graph on n vertices needs n-1 edges, so vertex counts run up
    to max_edges + 1; the sizes beyond the labeled-enumeration limit can only
    be trees.
    """
    if max_edges > ENUMERATION_VERTEX_LIMIT:
        # Beyond this the sizes past the labeled-enumeration limit would
        # include non-trees, which we cannot enumerate.
        raise InputError(
            f"edge caps beyond {ENUMERATION_VERTEX_LIMIT} are out of range"
        )
    out = []
    for n in range(1, min(max_edges + 1, ENUMERATION_VERTEX_LIMIT) + 1):
        for g in enumerate_connected_graphs(n, max_edges=max_edges):
            if g.edge_count >= min_edges:
                out.append(g)
    n = max_edges + 1
    if n > ENUMERATION_VERTEX_LIMIT and n - 1 >= min_edges:
        out.extend(enumerate_trees(n))
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


def _unknown_dict(u: Unknown) -> dict:
    return {"operation": u.operation, "budget_spent": u.budget_spent, "detail": u.detail}


def _map_records(
    fn: Callable[[MultiGraph], dict], corpus: Iterable[MultiGraph], workers: int
) -> list[dict]:
    graphs = list(corpus)
    if workers <= 1:
        return [fn(g) for g in graphs]
    from concurrent.futures import ProcessPoolExecutor  # only a pooled run pays for it

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, graphs))


# ---------------------------------------------------------------------------
# Campaign: witness nonemptiness vs iterated traceability


def iterated_traceable_truth(
    g: MultiGraph,
    n: int,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> tuple[bool | None, str, Unknown | None]:
    """Ground truth for "the n-th iterated line graph is traceable".

    Route: build level n-1 and search it for a dominating trail (one final
    line-graph step is equivalent to that).  Tiny intermediate graphs fall
    back to the direct oracle on level n.  Returns (value, route, unknown).
    """
    if n < 1:
        raise InputError(f"need n >= 1, got {n}")
    base = g
    for _ in range(n - 1):
        if base.edge_count == 0:
            break
        base = line_graph(base).graph
    if base.edge_count == 0:
        # Level n-1 is a single vertex; the next line graph does not exist,
        # and a 1-vertex graph is trivially traceable at level n-1 already.
        return True, "degenerate-tiny", None
    if base.edge_count < 3:
        final = line_graph(base).graph
        answer = has_hamiltonian_path(final, node_budget=node_budget, time_limit=time_limit)
        if isinstance(answer, Unknown):
            return None, "direct-oracle", answer
        return answer.value, "direct-oracle", None
    trail = find_dominating_trail(
        base, closed=False, node_budget=node_budget, time_limit=time_limit
    )
    if isinstance(trail, Unknown):
        return None, "dominating-trail", trail
    return trail is not None, "dominating-trail", None


def _main_record(
    g: MultiGraph,
    n: int,
    node_budget: int | None,
    time_limit: float | None,
) -> dict:
    rec: dict = {"graph": graph_id(g), "n_vertices": g.vertex_count, "m_edges": g.edge_count}
    unknown = None
    witness = find_witness(g, n, VARIANT_EUP, node_budget=node_budget, time_limit=time_limit)
    if isinstance(witness, Unknown):
        unknown = witness
        rec["witness_found"] = None
    else:
        rec["witness_found"] = witness is not None
    truth, route, truth_unknown = iterated_traceable_truth(
        g, n, node_budget=node_budget, time_limit=time_limit
    )
    rec["iterated_traceable"] = truth
    rec["truth_route"] = route
    if truth_unknown is not None:
        unknown = unknown or truth_unknown
    # Opportunistic direct cross-check of the ground truth itself.
    rec["cross_check"] = "skipped"
    if truth is not None:
        try:
            ln = iterated_line_graph(g, n, cap=50000)
        except (CapExceededError, EdgelessGraphError):
            ln = None
        if ln is not None and ln.vertex_count <= CROSS_CHECK_MAX_VERTICES:
            direct = has_hamiltonian_path(ln)
            if not isinstance(direct, Unknown):
                rec["cross_check"] = "agree" if direct.value == truth else "conflict"
    if unknown is not None:
        rec["unknown"] = _unknown_dict(unknown)
        rec["agree"] = None
    else:
        rec["agree"] = rec["witness_found"] == truth and rec["cross_check"] != "conflict"
    return rec


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
    fn = partial(_main_record, n=n, node_budget=node_budget, time_limit=time_limit)
    records = _map_records(fn, corpus, workers)
    return CampaignReport("main", {"n": n}, records).finalize()


def _induction_record(
    g: MultiGraph, k: int, node_budget: int | None, time_limit: float | None
) -> dict:
    rec: dict = {"graph": graph_id(g), "n_vertices": g.vertex_count, "m_edges": g.edge_count}
    unknown = None
    lg = line_graph(g).graph
    lhs = find_witness(lg, k, VARIANT_EUP, node_budget=node_budget, time_limit=time_limit)
    rhs = find_witness(g, k + 1, VARIANT_EUP, node_budget=node_budget, time_limit=time_limit)
    if isinstance(lhs, Unknown):
        unknown = lhs
        rec["line_graph_witness"] = None
    else:
        rec["line_graph_witness"] = lhs is not None
    if isinstance(rhs, Unknown):
        unknown = unknown or rhs
        rec["base_graph_witness"] = None
    else:
        rec["base_graph_witness"] = rhs is not None
    if unknown is not None:
        rec["unknown"] = _unknown_dict(unknown)
        rec["agree"] = None
    else:
        rec["agree"] = rec["line_graph_witness"] == rec["base_graph_witness"]
    return rec


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
    corpus = list(corpus)
    eligible = [g for g in corpus if g.edge_count >= 2]
    skipped = [g for g in corpus if g.edge_count < 2]
    fn = partial(_induction_record, k=k, node_budget=node_budget, time_limit=time_limit)
    records = _map_records(fn, eligible, workers)
    for g in skipped:
        records.append(
            {
                "graph": graph_id(g),
                "n_vertices": g.vertex_count,
                "m_edges": g.edge_count,
                "agree": None,
                "skipped": "line graph has fewer than two vertices",
            }
        )
    return CampaignReport("induction", {"k": k}, records).finalize()


# ---------------------------------------------------------------------------
# Campaign: bounds and exact indices


def _bounds_record(
    g: MultiGraph, node_budget: int | None, time_limit: float | None
) -> dict:
    rec: dict = {"graph": graph_id(g), "n_vertices": g.vertex_count, "m_edges": g.edge_count}
    unknown = None
    hp = hamiltonian_path_index(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(hp, Unknown):
        unknown = hp
        rec["hp"] = None
    else:
        rec["hp"] = hp.value
        rec["hp_method"] = hp.method
    try:
        h = hamiltonian_index(g, node_budget=node_budget, time_limit=time_limit)
        if isinstance(h, Unknown):
            unknown = unknown or h
            rec["h"] = None
        else:
            rec["h"] = h.value
    except PathHasNoIndexError:
        rec["h"] = None
        rec["h_defined"] = False
    bounds = compute_bounds(g, node_budget=node_budget, time_limit=time_limit)
    rec["bounds"] = bounds.to_dict()
    violations = []
    if rec["hp"] is not None:
        for name in ("thm_b1", "cor1", "cor2", "thm_b2"):
            value = rec["bounds"][name]
            if value is not None and rec["hp"] > value:
                violations.append(f"hp={rec['hp']} exceeds {name}={value}")
        if rec.get("h") is not None and rec["hp"] > rec["h"]:
            violations.append(f"hp={rec['hp']} exceeds h={rec['h']}")
    rec["violations"] = violations
    if unknown is not None:
        rec["unknown"] = _unknown_dict(unknown)
        rec["agree"] = None
    else:
        rec["agree"] = not violations
    return rec


def run_bounds_campaign(
    corpus: Iterable[MultiGraph],
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Exact indices vs every upper bound on every corpus graph."""
    fn = partial(_bounds_record, node_budget=node_budget, time_limit=time_limit)
    records = _map_records(fn, corpus, workers)
    return CampaignReport("bounds", {}, records).finalize()


# ---------------------------------------------------------------------------
# Campaign: oracle equivalences through one line-graph step


def _equivalence_record(
    g: MultiGraph, node_budget: int | None, time_limit: float | None
) -> dict:
    rec: dict = {"graph": graph_id(g), "n_vertices": g.vertex_count, "m_edges": g.edge_count}
    unknown = None
    lg = line_graph(g).graph
    results = {}
    for label, oracle, closed in (
        ("traceable", has_hamiltonian_path, False),
        ("hamiltonian", has_hamiltonian_cycle, True),
    ):
        direct = oracle(lg, node_budget=node_budget, time_limit=time_limit)
        trail = find_dominating_trail(
            g, closed=closed, node_budget=node_budget, time_limit=time_limit
        )
        if isinstance(direct, Unknown):
            unknown = unknown or direct
            results[label] = None
        elif isinstance(trail, Unknown):
            unknown = unknown or trail
            results[label] = None
        else:
            rec[f"line_graph_{label}"] = direct.value
            rec[f"dominating_trail_{'closed' if closed else 'open'}"] = trail is not None
            results[label] = direct.value == (trail is not None)
    if unknown is not None:
        rec["unknown"] = _unknown_dict(unknown)
        rec["agree"] = None
    else:
        rec["agree"] = all(results.values())
    return rec


def run_equivalence_campaign(
    corpus: Iterable[MultiGraph],
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
    workers: int = 1,
) -> CampaignReport:
    """Line-graph hamiltonicity oracles vs dominating-trail search on the base graph."""
    fn = partial(_equivalence_record, node_budget=node_budget, time_limit=time_limit)
    records = _map_records(fn, corpus, workers)
    return CampaignReport("equivalence", {}, records).finalize()


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

    def low_count(b) -> int:
        return sum(1 for v in set(b.vertices) if g.degree(v) <= 2)

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
            step = min(
                (w for w in g.distinct_neighbors(cur) if dist[w] == dist[cur] - 1),
            )
            eid = next(
                e for e in g.incidence[cur] if set(g.endpoints(e)) == {cur, step}
            )
            edge_ids.add(eid)
            cur = step
    return canonical_candidate(g, edge_ids)


def run_family_suite(
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> CampaignReport:
    """Check the published sharpness statistics of the named families."""
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
                **({"unknown": _unknown_dict(actual)} if unknown else {}),
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
