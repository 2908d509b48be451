"""Exact hamiltonian(-path) index computation and upper bounds.

The index chain: level 0 is a direct hamiltonicity oracle on the graph,
level 1 reduces to dominating-(closed-)trail search, and levels >= 2 walk the
witness families upward (EUP for the path index, EU for the cycle index).
Level 1 is handled by the trail reductions and never by a k=1 witness query,
because the witness characterizations only start at k = 2.

Empty levels are settled by structure where it suffices, before any search:
level 1 by the bridge-tree certificate
(:func:`~itline.structure.bridge_tree_rules_out_trail`), and EUP levels by
the pendant parity certificate inside
:func:`~itline.eup.find_witness`.  Both are exact, so every index value,
method and witness is the one the searches alone would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice

from .budget import Unknown, default_node_budget
from .eup import VARIANT_EU, VARIANT_EUP, find_witness
from .graphcore import (
    DisconnectedGraphError,
    GraphError,
    MultiGraph,
    SubgraphH,
    Trail,
    diameter,
    is_connected,
    trail_from_order,
)
from .hamilton import has_hamiltonian_cycle, has_hamiltonian_path
from .linegraph import CapExceededError, EdgelessGraphError, _levels
from .structure import (
    branches,
    bridge_tree_rules_out_trail,
    find_dominating_trail,
    max_trail,
)


class PathHasNoIndexError(GraphError):
    """Iterating the line graph of a path never becomes hamiltonian."""


def is_path_graph(g: MultiGraph) -> bool:
    """Connected, acyclic, maximum degree <= 2 (includes the 1- and 2-vertex paths)."""
    if not is_connected(g):
        return False
    if g.edge_count != g.vertex_count - 1:
        return False
    return all(len(ids) <= 2 for ids in g.incidence)


@dataclass(frozen=True)
class IndexResult:
    """An index value with the route that established it.

    value 0 comes from the direct oracle, 1 from a dominating-trail
    reduction, >= 2 from a witness family; the witness is a trail or a
    subgraph accordingly.
    """

    value: int
    method: str  # direct-oracle | dominating-trail | EUP-witness | EU-witness
    kind: str  # hp | h
    witness: Trail | SubgraphH | None = None


@dataclass(frozen=True)
class CrossCheck:
    status: str  # confirmed | cap_exceeded | mismatch
    detail: str = ""


def _index(
    g: MultiGraph, closed: bool, node_budget: int | None, time_limit: float | None
) -> IndexResult | Unknown:
    """The hamiltonian index when ``closed``, else the hamiltonian path index.

    Level 0 comes from the direct oracle, level 1 from a dominating (closed)
    trail, then the EU (EUP) witness levels 2..stop, which must settle the
    index; the stop is :func:`_cycle_index_stop` (:func:`bound_cor2`).
    Level 1 is searched only when the bridge-tree certificate does not rule
    it out, and the stop is computed only once a witness level comes up
    empty, since most graphs settle at level 2.  An ``Unknown``'s detail
    opens with the stage and the level whose search ran out.
    """
    if closed:
        name, kind, oracle, variant, stop = (
            "hamiltonian_index", "h", has_hamiltonian_cycle, VARIANT_EU, _cycle_index_stop
        )
    else:
        name, kind, oracle, variant, stop = (
            "hamiltonian_path_index", "hp", has_hamiltonian_path, VARIANT_EUP, bound_cor2
        )
    if not is_connected(g):
        raise DisconnectedGraphError(f"{name} requires a connected graph")
    node_budget = default_node_budget() if node_budget is None else node_budget
    answer = oracle(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(answer, Unknown):
        return Unknown(
            name, answer.budget_spent, f"direct oracle undecided at level 0: {answer.detail}"
        )
    if answer.value:
        # A cycle's witness closes up through its start.
        return IndexResult(
            0, "direct-oracle", kind, trail_from_order(g, answer.order, closed=closed)
        )
    if g.edge_count < 3:
        # Connected graphs with fewer than three edges are all traceable,
        # and hamiltonian unless they are paths.
        raise GraphError(f"internal: small graph without a level-0 {kind} answer")
    if not bridge_tree_rules_out_trail(g, closed):
        trail = find_dominating_trail(
            g, closed=closed, node_budget=node_budget, time_limit=time_limit
        )
        if isinstance(trail, Unknown):
            return Unknown(
                name,
                trail.budget_spent,
                f"dominating-trail search undecided at level 1: {trail.detail}",
            )
        if trail is not None:
            return IndexResult(1, "dominating-trail", kind, trail)
    last = None
    for k in count(2):
        witness = find_witness(
            g, k, variant, node_budget=node_budget, time_limit=time_limit
        )
        if isinstance(witness, Unknown):
            return Unknown(
                name,
                witness.budget_spent,
                f"witness search undecided at k={k}: {witness.detail}",
            )
        if witness is not None:
            return IndexResult(k, f"{variant.upper()}-witness", kind, witness)
        if last is None:
            last = stop(g)
        if k >= last:
            raise GraphError("internal: no witness found up to the guaranteed stopping bound")


def _cycle_index_stop(g: MultiGraph) -> int:
    """A level at which every graph that can pass at any level passes."""
    longest = max((b.length for b in branches(g)), default=0)
    return max(2, diameter(g) + 1, longest)


def hamiltonian_path_index(
    g: MultiGraph,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> IndexResult | Unknown:
    """Least number of line-graph iterations until a hamiltonian path exists."""
    return _index(g, False, node_budget, time_limit)


def hamiltonian_index(
    g: MultiGraph,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> IndexResult | Unknown:
    """Least number of line-graph iterations until a hamiltonian cycle exists.

    Defined for every connected graph except paths.
    """
    if is_path_graph(g):
        raise PathHasNoIndexError("paths have no hamiltonian index")
    return _index(g, True, node_budget, time_limit)


# ---------------------------------------------------------------------------
# Upper bounds on the hamiltonian path index


def bound_thm_b1(
    g: MultiGraph, *, node_budget: int | None = None, time_limit: float | None = None
) -> int | Unknown:
    """n - mt* - d3* + 2, from a maximum trail."""
    mt = max_trail(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(mt, Unknown):
        return mt
    return g.vertex_count - mt.mt_star - mt.d3_star + 2


def bound_cor1(
    g: MultiGraph, *, node_budget: int | None = None, time_limit: float | None = None
) -> int | Unknown:
    """max(1, n - mt*)."""
    mt = max_trail(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(mt, Unknown):
        return mt
    return max(1, g.vertex_count - mt.mt_star)


def bound_cor2(g: MultiGraph) -> int:
    """max(1, n - diam - 1)."""
    return max(1, g.vertex_count - diameter(g) - 1)


def delta_prime(g: MultiGraph) -> int:
    """Largest distinct-neighbor count over the vertices."""
    return max((m.bit_count() for m in g.neighbor_masks), default=0)


def d3_doublestar(g: MultiGraph) -> int:
    """Most degree->=3 vertices outside N(v), over vertices v with |N(v)| maximal."""
    dp = delta_prime(g)
    return max(
        ((g.v3_mask & ~m).bit_count() for m in g.neighbor_masks if m.bit_count() == dp), default=0
    )


def bound_thm_b2(g: MultiGraph) -> int:
    """floor((n - delta' - d3**) / 3) + 3."""
    return (g.vertex_count - delta_prime(g) - d3_doublestar(g)) // 3 + 3


@dataclass(frozen=True)
class BoundsReport:
    """The four upper bounds with their ingredient statistics.

    The bounds are mutually independent; each individually dominates the
    exact path index.  Trail-based fields are None when the trail search
    returned Unknown, with the operation listed in ``unknowns``.
    """

    n: int
    diam: int
    delta_prime: int
    d3_doublestar: int
    mt_star: int | None
    d3_star: int | None
    thm_b1: int | None
    cor1: int | None
    cor2: int
    thm_b2: int
    unknowns: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "thm_b1": self.thm_b1,
            "cor1": self.cor1,
            "cor2": self.cor2,
            "thm_b2": self.thm_b2,
            "stats": {
                "n": self.n,
                "mt_star": self.mt_star,
                "d3_star": self.d3_star,
                "diam": self.diam,
                "delta_prime": self.delta_prime,
                "d3_doublestar": self.d3_doublestar,
            },
            "unknowns": list(self.unknowns),
        }


def compute_bounds(
    g: MultiGraph, *, node_budget: int | None = None, time_limit: float | None = None
) -> BoundsReport:
    """All four bounds from one maximum-trail computation."""
    n = g.vertex_count
    diam = diameter(g)
    dp = delta_prime(g)
    dss = d3_doublestar(g)
    cor2 = max(1, n - diam - 1)
    thm_b2 = (n - dp - dss) // 3 + 3
    mt = max_trail(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(mt, Unknown):
        return BoundsReport(
            n, diam, dp, dss, None, None, None, None, cor2, thm_b2, ("max_trail",)
        )
    thm_b1 = n - mt.mt_star - mt.d3_star + 2
    cor1 = max(1, n - mt.mt_star)
    return BoundsReport(n, diam, dp, dss, mt.mt_star, mt.d3_star, thm_b1, cor1, cor2, thm_b2)


# ---------------------------------------------------------------------------
# Direct-iteration confirmation


def direct_index_cross_check(
    g: MultiGraph,
    claimed: IndexResult,
    *,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> CrossCheck:
    """Rebuild the iterated line graphs and test the claimed index directly.

    Expects failure of the target property at level value-1 and success at
    level value; each level is built once, from the level before, under
    :func:`~itline.linegraph.iterated_line_graph`'s cap.  Construction or
    oracle limits yield cap_exceeded, never a false confirmation.
    """
    oracle = has_hamiltonian_path if claimed.kind == "hp" else has_hamiltonian_cycle
    levels = _levels(g)
    try:
        if claimed.value >= 1:
            lower = next(islice(levels, claimed.value - 1, None))
            below = oracle(lower, node_budget=node_budget, time_limit=time_limit)
            if isinstance(below, Unknown):
                return CrossCheck("cap_exceeded", f"oracle undecided at level {claimed.value - 1}")
            if below.value:
                return CrossCheck(
                    "mismatch",
                    f"level {claimed.value - 1} already satisfies the {claimed.kind} target",
                )
        at = oracle(next(levels), node_budget=node_budget, time_limit=time_limit)
        if isinstance(at, Unknown):
            return CrossCheck("cap_exceeded", f"oracle undecided at level {claimed.value}")
        if not at.value:
            return CrossCheck(
                "mismatch", f"level {claimed.value} does not satisfy the {claimed.kind} target"
            )
        if not claimed.value:
            return CrossCheck("confirmed", "level 0 behaves as claimed")
        return CrossCheck("confirmed", f"levels {claimed.value - 1},{claimed.value} behave as claimed")
    except CapExceededError as exc:
        return CrossCheck("cap_exceeded", str(exc))
    except EdgelessGraphError as exc:
        return CrossCheck("mismatch", f"iteration collapses before the claimed level: {exc}")
