"""Hypothesis strategies for domains and payoffs shared by the property tests."""

from __future__ import annotations

from fractions import Fraction

from hypothesis import strategies as st

from conngames import ConnectivityDomain

WIDE_VERTICES = 63  # past the width of one int64 lane


@st.composite
def domains(draw, max_agents: int = 10, wide: bool | None = None,
            tree: bool = False) -> ConnectivityDomain:
    """Random domain with 0..max_agents agents, 0..4 primaries and a few
    backbones on arbitrary vertex ids; with ``tree``, its graph is a random
    spanning tree. A wide domain is padded past 62 vertices: its first edge
    is subdivided by a chain of backbones (which keeps every coalition's
    value) and the rest are isolated backbones."""
    n = draw(st.integers(0, max_agents))
    n_primary = draw(st.integers(0, 4))
    n_backbone = draw(st.integers(0, 3))
    size = n + n_primary + n_backbone
    if tree:
        edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    else:
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


@st.composite
def symmetric_domains(draw, max_agents: int = 12) -> ConnectivityDomain:
    """Two primaries joined either by ``layers`` layers of ``width`` agents,
    each agent adjacent to every agent of the next layer (the primaries are
    the outer layers), or by ``width`` disjoint paths of ``layers`` agents.
    Agents of one layer are interchangeable, so the minimal winning
    coalitions come in large orbits of equal size and their payments often
    tie. Vertex ids and agent order are shuffled."""
    width = draw(st.integers(1, 4))
    layers = draw(st.integers(1, max(1, max_agents // width)))
    paths = draw(st.booleans())
    ids = draw(st.permutations(range(width * layers + 2)))
    a, b, agents = ids[0], ids[1], ids[2:]
    grid = [agents[k * width:(k + 1) * width] for k in range(layers)]
    if paths:
        edges = [(u, v) for path in zip(*grid) for u, v in zip((a, *path), (*path, b))]
    else:
        stages = [(a,), *grid, (b,)]
        edges = [(u, v) for left, right in zip(stages, stages[1:]) for u in left for v in right]
    return ConnectivityDomain(len(ids), tuple(edges), (a, b), (), tuple(agents))


@st.composite
def unanimity_domains(draw, max_agents: int = 6) -> ConnectivityDomain:
    """A random spanning tree with 2-4 primaries, 0-3 backbones and 1 to
    ``max_agents`` agents, and maybe a ring of 2 or 3 more agents hanging off
    one vertex. A path through the ring leaves and re-enters at that vertex,
    so the ring's agents are null players: unless every coalition wins, the
    veto set wins on its own, although the graph may have a cycle."""
    n = draw(st.integers(1, max_agents))
    n_primary = draw(st.integers(2, 4))
    n_backbone = draw(st.integers(0, 3))
    size = n + n_primary + n_backbone
    edges = [(draw(st.integers(0, v - 1)), v) for v in range(1, size)]
    kinds = draw(st.permutations(range(size)))
    standard = list(kinds[n_primary + n_backbone:])
    ring = draw(st.sampled_from([0, 2, 3]))
    if ring:
        cycle = [draw(st.integers(0, size - 1)), *range(size, size + ring)]
        edges += zip(cycle, cycle[1:] + cycle[:1])
        standard += range(size, size + ring)
        size += ring
    return ConnectivityDomain(size, tuple(edges), tuple(kinds[:n_primary]),
                              tuple(kinds[n_primary:n_primary + n_backbone]), tuple(standard))


@st.composite
def payoffs(draw, n: int, total: int = 1) -> list[Fraction]:
    """n - 1 payoffs in about [-1, 1] plus one that brings the sum to
    ``total``. Each is of one drawn kind:

    - a multiple of 1/4, or of 1/3 or 1/7 (mixed denominators);
    - float-derived, such as ``Fraction(0.001)`` or ``Fraction(0.25 + 1e-9)``
      (binary denominators up to about 2^80);
    - a multiple of 1/d for a large d, about 2^30 to 2^100 (coprime in
      practice), some of them 0 or +-1/d.

    A sparse draw (two in three) pays nothing to most agents, like a simplex
    optimum. Any payoff, zeros included, is optionally shifted by a few
    10^-12 or (twice as often) 10^-25. Scaled sums of the huge-denominator
    kinds pass int64, so payments that differ by a few 10^-25 tie under any
    fixed-width scoring. Few distinct values, so coalitions often tie, and
    negative entries."""
    if n == 0:
        return []
    kind = draw(st.sampled_from(["small", "small", "float", "huge"]))
    denominators = draw(st.sampled_from([(4,), (3, 7)]))
    tiny = draw(st.sampled_from([None, 10 ** 12, 10 ** 25, 10 ** 25]))
    sparse = draw(st.sampled_from([False, True, True]))
    values = []
    for _ in range(n - 1):
        if sparse and draw(st.integers(0, 3)):
            value = Fraction(0)
        elif kind == "float":
            value = Fraction(draw(st.integers(-4, 4)) / 4
                             + draw(st.sampled_from([0.0, 0.001, -0.001, 1e-9, -1e-9])))
        elif kind == "huge":
            d = draw(st.integers(2 ** 30, 2 ** 100))
            value = Fraction(draw(st.one_of(st.sampled_from([0, 1, -1]),
                                            st.integers(-d, d))), d)
        else:
            d = draw(st.sampled_from(denominators))
            value = Fraction(draw(st.integers(-d, d)), d)
        if tiny:
            value += Fraction(draw(st.sampled_from([-3, -2, -1, 1, 2, 3])), tiny)
        values.append(value)
    return values + [total - sum(values, Fraction(0))]


@st.composite
def least_core_programs(draw, max_agents: int = 6, max_cuts: int = 8):
    """``(n, cuts)``: the least core's covering program over 1..max_cuts
    drawn nonempty coalitions of n agents, as bitmasks, repeats allowed.
    Small masks over few agents make ties in the ratio test common, so the
    tie-breaks decide which optimal vertex is returned."""
    n = draw(st.integers(1, max_agents))
    return n, draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=max_cuts))


@st.composite
def sparse_domains(draw, max_agents: int = 70) -> ConnectivityDomain:
    """Connected domain with 0..max_agents agents, 2-3 primaries and up to 2
    backbones: a random tree (each vertex joined to an earlier one) plus a
    few chords, so coalition masks pass 64 bits while the draw stays small.
    Some draws are reshaped: all-win (the primaries joined by direct edges),
    all-lose (the first primary isolated) or a single primary (the others
    become backbones)."""
    n = draw(st.integers(0, max_agents))
    n_primary = draw(st.integers(2, 3))
    n_backbone = draw(st.integers(0, 2))
    size = n + n_primary + n_backbone
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, size)}
    vertex = st.integers(0, size - 1)
    chords = draw(st.lists(st.tuples(vertex, vertex), max_size=size // 4))
    edges |= {(min(u, v), max(u, v)) for u, v in chords if u != v}
    kinds = draw(st.permutations(range(size)))
    primary = kinds[:n_primary]
    shape = draw(st.sampled_from(["random", "random", "all-win", "all-lose", "one-primary"]))
    if shape == "all-win":
        edges |= {(min(u, v), max(u, v)) for u, v in zip(primary, primary[1:])}
    elif shape == "all-lose":
        edges = {e for e in edges if primary[0] not in e}
    elif shape == "one-primary":
        primary = primary[:1]
    return ConnectivityDomain(size, tuple(sorted(edges)), tuple(primary),
                              tuple(kinds[len(primary):n_primary + n_backbone]),
                              tuple(kinds[n_primary + n_backbone:]))
