"""Shared corpus fixtures and hypothesis strategies."""

from __future__ import annotations

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
