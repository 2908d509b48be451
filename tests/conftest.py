"""Shared corpus fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from itline.graphcore import MultiGraph, is_connected
from itline.harness import corpus_by_edge_cap, corpus_graphs


@pytest.fixture(scope="session")
def corpus5() -> list[MultiGraph]:
    return corpus_graphs(5)


@pytest.fixture(scope="session")
def corpus6() -> list[MultiGraph]:
    return corpus_graphs(6)


@pytest.fixture(scope="session")
def corpus6_3e(corpus6) -> list[MultiGraph]:
    return [g for g in corpus6 if g.edge_count >= 3]


@pytest.fixture(scope="session")
def corpus_edges7() -> list[MultiGraph]:
    return corpus_by_edge_cap(7)


def relabeled_copy(g: MultiGraph, rng: random.Random) -> MultiGraph:
    """An isomorphic copy under a random vertex permutation, with no cached code."""
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return MultiGraph(g.vertex_count, tuple((perm[u], perm[v]) for u, v in g.edges))


@st.composite
def multigraphs(draw, max_vertices: int = 6, max_edges: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    if n == 1:
        return MultiGraph(1, ())
    pair = st.tuples(
        st.integers(min_value=0, max_value=n - 1),
        st.integers(min_value=0, max_value=n - 1),
    ).filter(lambda uv: uv[0] != uv[1])
    edges = draw(st.lists(pair, max_size=max_edges))
    return MultiGraph(n, tuple(edges))


@st.composite
def doubled_multigraphs(draw, max_vertices: int = 6, max_edges: int = 10, base=None):
    """Graphs drawn from ``base`` (by default ``multigraphs``, connected or
    not) with up to three edges doubled into parallel pairs."""
    g = draw(multigraphs(max_vertices, max_edges) if base is None else base)
    doubled = draw(st.lists(st.integers(min_value=0), max_size=3))
    if not g.edge_count:
        return g
    return MultiGraph(g.vertex_count, g.edges + tuple(g.edges[i % g.edge_count] for i in doubled))


@st.composite
def simple_graphs(draw, max_vertices: int = 6):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    if n == 1:
        return MultiGraph(1, ())
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.integers(min_value=0, max_value=(1 << len(pairs)) - 1))
    edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
    return MultiGraph(n, edges)


@st.composite
def connected_multigraphs(draw, max_vertices: int = 6, max_extra_edges: int = 5):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges: list[tuple[int, int]] = []
    # Random spanning tree first, extras on top.
    for v in range(1, n):
        edges.append((draw(st.integers(min_value=0, max_value=v - 1)), v))
    if n >= 2:
        pair = st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
        ).filter(lambda uv: uv[0] != uv[1])
        edges.extend(draw(st.lists(pair, max_size=max_extra_edges)))
    g = MultiGraph(n, tuple(edges))
    assert is_connected(g)
    return g


@st.composite
def long_branch_graphs(draw, max_vertices: int = 4, max_extra_edges: int = 2, max_edges: int = 10):
    """Connected multigraphs with some edges subdivided into paths of 2-5 edges."""
    g = draw(connected_multigraphs(max_vertices, max_extra_edges))
    n, edges = g.vertex_count, list(g.edges)
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        room = max_edges - len(edges)
        if not edges or room < 1:
            break
        j = draw(st.integers(min_value=0, max_value=len(edges) - 1))
        inner = draw(st.integers(min_value=1, max_value=min(4, room)))
        chain = [edges[j][0], *range(n, n + inner), edges[j][1]]
        n += inner
        edges[j:j + 1] = list(zip(chain, chain[1:]))
    return MultiGraph(n, tuple(edges))


@st.composite
def attached_cycle_graphs(draw, max_edges: int = 12):
    """``long_branch_graphs`` with up to two cycles of 2-4 edges hung at one
    vertex each, edges in random order."""
    g = draw(long_branch_graphs(max_edges=max_edges - 2))
    n, edges = g.vertex_count, list(g.edges)
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        room = max_edges - len(edges)
        if room < 2:
            break
        at = draw(st.integers(min_value=0, max_value=n - 1))
        inner = draw(st.integers(min_value=1, max_value=min(3, room - 1)))
        chain = [at, *range(n, n + inner), at]
        n += inner
        edges.extend(zip(chain, chain[1:]))
    return MultiGraph(n, tuple(draw(st.permutations(edges))))


def _hang_legs(n: int, edges: list[tuple[int, int]], at: int, legs) -> int:
    """Hang paths of the given edge counts at vertex ``at``, numbering new
    vertices from ``n``; returns the new vertex count."""
    for length in legs:
        prev = at
        for _ in range(length):
            edges.append((prev, n))
            prev, n = n, n + 1
    return n


@st.composite
def spiders(draw, max_edges: int = 9):
    """A centre with three or four legs of 2-3 edges (three when four do not
    fit in ``max_edges``) and up to two single-edge legs."""
    legs = draw(st.lists(st.integers(min_value=2, max_value=3), min_size=3, max_size=4))
    if sum(legs) > max_edges:
        legs = legs[:3]
    legs += [1] * draw(st.integers(min_value=0, max_value=min(2, max_edges - sum(legs))))
    edges: list[tuple[int, int]] = []
    return MultiGraph(_hang_legs(1, edges, 0, legs), tuple(edges))


@st.composite
def brooms(draw):
    """A handle of 2-4 edges with one or two legs of 2-3 edges at one end and
    up to two legs of 1-3 edges at the other; the tip of the last leg may be
    closed into a triangle."""
    edges: list[tuple[int, int]] = []
    n = _hang_legs(1, edges, 0, [draw(st.integers(min_value=2, max_value=4))])
    n = _hang_legs(n, edges, n - 1, draw(st.lists(st.integers(2, 3), min_size=1, max_size=2)))
    n = _hang_legs(n, edges, 0, draw(st.lists(st.integers(1, 3), max_size=2)))
    if draw(st.booleans()):
        before_tip = edges[-1][0]
        edges += [(n - 1, n), (before_tip, n)]
        n += 1
    return MultiGraph(n, tuple(edges))
