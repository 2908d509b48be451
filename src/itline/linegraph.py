"""The line-graph operator and its iteration; vertex i of L(G) is edge i of G."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, count, islice
from typing import Iterator

from .graphcore import GraphError, InputError, MultiGraph, _unchecked


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
    # ids ascend, so each pair does.
    pairs = [pair for ids in g.incidence for pair in combinations(ids, 2)]
    if sum(map(int.bit_count, g.neighbor_masks)) != 2 * m:
        # Two parallel edges meet at both their ends: each end lists the pair.
        pairs = set(pairs)
    lg = _unchecked(MultiGraph, m, tuple(sorted(pairs)))
    if g.connected:
        # Any two edges of a connected graph lie on a walk, so L(G) is
        # connected too: its searches skip their own flood.
        lg.__dict__["connected"] = True
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
