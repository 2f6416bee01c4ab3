"""Hypothesis strategies for domains and payoffs shared by the property tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from conngames import ConnectivityDomain

WIDE_VERTICES = 63  # past the width of one int64 lane


@st.composite
def domains(draw, max_agents: int = 10, wide: bool | None = None) -> ConnectivityDomain:
    """Random domain with 0..max_agents agents, 0..4 primaries and a few
    backbones on arbitrary vertex ids. A wide domain is padded past 62
    vertices: its first edge is subdivided by a chain of backbones (which
    keeps every coalition's value) and the rest are isolated backbones."""
    n = draw(st.integers(0, max_agents))
    n_primary = draw(st.integers(0, 4))
    n_backbone = draw(st.integers(0, 3))
    size = n + n_primary + n_backbone
    pairs = [(u, v) for u in range(size) for v in range(u + 1, size)]
    density = draw(st.sampled_from([20, 35, 50]))
    rolls = draw(st.lists(st.integers(0, 99), min_size=len(pairs), max_size=len(pairs)))
    edges = [pair for pair, roll in zip(pairs, rolls) if roll < density]
    kinds = draw(st.permutations(range(size)))
    primary = kinds[:n_primary]
    backbone = list(kinds[n_primary:n_primary + n_backbone])
    standard = kinds[n_primary + n_backbone:]
    if wide is None:
        wide = draw(st.booleans())
    if wide:
        extra = draw(st.integers(WIDE_VERTICES, WIDE_VERTICES + 12)) - size
        chain = list(range(size, size + draw(st.integers(1, extra))))
        backbone += range(size, size + extra)
        if edges:
            u, v = edges.pop(0)
            path = [u, *chain, v]
            edges += zip(path, path[1:])
        size += extra
    return ConnectivityDomain(size, tuple(edges), tuple(primary), tuple(backbone),
                              tuple(standard))


def payoffs(n: int, total: int = 1) -> st.SearchStrategy[list[Fraction]]:
    """n - 1 quarter-step payoffs in [-1, 1] plus one that brings the sum to
    ``total``: few distinct values, so coalitions often tie, and negative
    entries."""
    if n == 0:
        return st.just([])
    quarters = st.lists(st.integers(-4, 4), min_size=n - 1, max_size=n - 1)
    return quarters.map(lambda qs: [Fraction(q, 4) for q in qs]
                        + [total - sum((Fraction(q, 4) for q in qs), Fraction(0))])
