"""Exact hamiltonian(-path) index computation and upper bounds.

The index chain: level 0 is a direct hamiltonicity oracle on the graph,
level 1 reduces to dominating-(closed-)trail search, and levels >= 2 walk the
witness families upward (EUP for the path index, EU for the cycle index).
Level 1 is handled by the trail reductions and never by a k=1 witness query,
because the witness characterizations only start at k = 2.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .budget import Unknown
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
from .hamilton import OracleAnswer, has_hamiltonian_cycle, has_hamiltonian_path
from .linegraph import CapExceededError, EdgelessGraphError, iterated_line_graph
from .structure import branches, find_dominating_trail, max_trail


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
    cross_check: "CrossCheck | None" = None


@dataclass(frozen=True)
class CrossCheck:
    status: str  # confirmed | cap_exceeded | mismatch
    detail: str = ""


def _index(
    g: MultiGraph,
    name: str,
    kind: str,
    oracle: Callable[..., OracleAnswer | Unknown],
    closed: bool,
    variant: str,
    stop: Callable[[MultiGraph], int],
    node_budget: int | None,
    time_limit: float | None,
) -> IndexResult | Unknown:
    """Level 0 from ``oracle``, level 1 from a dominating (closed) trail, then
    the ``variant`` witness levels 2..``stop(g)``, which must settle the index.
    """
    if not is_connected(g):
        raise DisconnectedGraphError(f"{name} requires a connected graph")
    answer = oracle(g, node_budget=node_budget, time_limit=time_limit)
    if isinstance(answer, Unknown):
        return Unknown(name, answer.budget_spent, answer.detail)
    if answer.value:
        # A cycle's witness closes up through its start.
        return IndexResult(
            0, "direct-oracle", kind, trail_from_order(g, answer.order, closed=closed)
        )
    if g.edge_count < 3:
        # Connected graphs with fewer than three edges are all traceable,
        # and hamiltonian unless they are paths.
        raise GraphError(f"internal: small graph without a level-0 {kind} answer")
    trail = find_dominating_trail(
        g, closed=closed, node_budget=node_budget, time_limit=time_limit
    )
    if isinstance(trail, Unknown):
        return Unknown(name, trail.budget_spent, trail.detail)
    if trail is not None:
        return IndexResult(1, "dominating-trail", kind, trail)
    for k in range(2, stop(g) + 1):
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
    return _index(
        g, "hamiltonian_path_index", "hp", has_hamiltonian_path, False, VARIANT_EUP,
        bound_cor2, node_budget, time_limit,
    )


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
    return _index(
        g, "hamiltonian_index", "h", has_hamiltonian_cycle, True, VARIANT_EU,
        _cycle_index_stop, node_budget, time_limit,
    )


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
    v3 = sum(1 << v for v, ids in enumerate(g.incidence) if len(ids) >= 3)
    return max(
        ((v3 & ~m).bit_count() for m in g.neighbor_masks if m.bit_count() == dp), default=0
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
    build_cap: int = 5000,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> CrossCheck:
    """Rebuild the iterated line graphs and test the claimed index directly.

    Expects failure of the target property at level value-1 and success at
    level value; construction or oracle limits yield cap_exceeded, never a
    false confirmation.
    """
    oracle = has_hamiltonian_path if claimed.kind == "hp" else has_hamiltonian_cycle

    def level(j: int) -> MultiGraph:
        return g if j == 0 else iterated_line_graph(g, j, cap=build_cap)

    try:
        if claimed.value >= 1:
            below = oracle(
                level(claimed.value - 1), node_budget=node_budget, time_limit=time_limit
            )
            if isinstance(below, Unknown):
                return CrossCheck("cap_exceeded", f"oracle undecided at level {claimed.value - 1}")
            if below.value:
                return CrossCheck(
                    "mismatch",
                    f"level {claimed.value - 1} already satisfies the {claimed.kind} target",
                )
        at = oracle(level(claimed.value), node_budget=node_budget, time_limit=time_limit)
        if isinstance(at, Unknown):
            return CrossCheck("cap_exceeded", f"oracle undecided at level {claimed.value}")
        if not at.value:
            return CrossCheck(
                "mismatch", f"level {claimed.value} does not satisfy the {claimed.kind} target"
            )
        return CrossCheck("confirmed", f"levels {claimed.value - 1},{claimed.value} behave as claimed")
    except CapExceededError as exc:
        return CrossCheck("cap_exceeded", str(exc))
    except EdgelessGraphError as exc:
        return CrossCheck("mismatch", f"iteration collapses before the claimed level: {exc}")


def with_cross_check(
    g: MultiGraph,
    result: IndexResult,
    *,
    build_cap: int = 5000,
    node_budget: int | None = None,
    time_limit: float | None = None,
) -> IndexResult:
    check = direct_index_cross_check(
        g,
        result,
        build_cap=build_cap,
        node_budget=node_budget,
        time_limit=time_limit,
    )
    return replace(result, cross_check=check)
