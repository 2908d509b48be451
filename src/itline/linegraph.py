"""The line-graph operator and its iteration; vertex i of L(G) is edge i of G."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, islice
from typing import Iterator

from .graphcore import GraphError, InputError, MultiGraph, _unchecked, mask_members


class EdgelessGraphError(GraphError):
    """The line graph of an edgeless graph is undefined."""

    def __init__(self, message: str, level: int | None = None):
        super().__init__(message)
        self.level = level


class CapExceededError(GraphError):
    """Iterated construction aborted: an intermediate graph exceeds the vertex cap."""

    def __init__(self, level: int, size: int, cap: int):
        super().__init__(
            f"line-graph iteration stopped at level {level}: "
            f"{size} vertices exceeds cap {cap}"
        )
        self.level = level
        self.size = size
        self.cap = cap


@dataclass(frozen=True)
class LineGraphResult:
    """A line graph, whose vertex i is edge i of the graph it was built from."""

    graph: MultiGraph


def line_graph(g: MultiGraph) -> LineGraphResult:
    """Line graph of ``g``: one vertex per edge, adjacency = sharing an endpoint.

    The result is always simple; parallel edges of ``g`` share both endpoints
    and contribute a single adjacency.
    """
    m = g.edge_count
    if m == 0:
        raise EdgelessGraphError("line graph of an edgeless graph is undefined")
    pairs: set[tuple[int, int]] = set()
    for ids in g.incidence:
        pairs.update(combinations(ids, 2))  # ids ascend, so each pair does
    lg = _unchecked(MultiGraph, m, tuple(sorted(pairs)))
    return LineGraphResult(lg)


#: The vertex cap on every level built, unless a caller widens it.
DEFAULT_CAP = 5000


def iterated_line_graph(g: MultiGraph, n: int, cap: int = DEFAULT_CAP) -> MultiGraph:
    """Apply the line-graph operator ``n`` times.

    Sizes grow superexponentially, so the construction aborts with
    :class:`CapExceededError` as soon as the next level would exceed ``cap``
    vertices; callers that need exactness must widen the cap explicitly.
    """
    if n < 1:
        raise InputError(f"iteration count must be >= 1, got {n}")
    return next(islice(_levels(g, cap), n, None))


def _levels(g: MultiGraph, cap: int = DEFAULT_CAP) -> Iterator[MultiGraph]:
    """G, L(G), L^2(G), ..., each level built once from the one before; a
    level that is undefined or over ``cap`` vertices raises, naming it."""
    cur = g
    for level in count(1):
        yield cur
        if cur.edge_count == 0:
            raise EdgelessGraphError(
                f"graph at level {level - 1} has no edges; level {level} is undefined",
                level=level,
            )
        if cur.edge_count > cap:
            raise CapExceededError(level=level, size=cur.edge_count, cap=cap)
        cur = line_graph(cur).graph


def is_claw_free(g: MultiGraph) -> bool:
    """True iff no induced K_{1,3}: no vertex has three pairwise non-adjacent neighbors."""
    nbr = g.neighbor_masks
    for around in nbr:
        for a in mask_members(around):
            # rest: the neighbours after a that miss a; a claw is a b in rest
            # with a later c in rest that misses b.
            rest = around & ~nbr[a] & -(2 << a)
            for b in mask_members(rest):
                if rest & ~nbr[b] & -(2 << b):
                    return False
    return True
